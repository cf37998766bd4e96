/**
 * @file
 * The latency-estimator layer: one interface for every latency
 * estimate in the system.
 *
 * Sparse-DySta's central idea is a *single* estimator — offline LUT
 * averages refined online by monitored sparsity (Alg. 3) — feeding
 * both the static software level and the dynamic hardware level.
 * This interface makes that structure explicit: node schedulers
 * (SJF, PREMA, Planaria, SDRM3, Dysta), the cluster front-end
 * (least-estimated-backlog placement) and SLO admission control all
 * consume a `LatencyEstimator` instead of re-implementing LUT math.
 *
 * Three implementations span the paper's estimation spectrum:
 *  - `LutEstimator`: the static scheduler's profiled averages
 *    (Sec. 4.1), sparsity-blind;
 *  - `DystaEstimator`: LUT averages refined per request by the
 *    sparse latency predictor from monitored layer sparsity
 *    (Sec. 5.1) — the Sparse-DySta estimator;
 *  - `OracleEstimator`: ground-truth trace remainders, upper-
 *    bounding what any predictor can achieve (Figs. 14-15).
 */

#ifndef DYSTA_CORE_ESTIMATOR_HH
#define DYSTA_CORE_ESTIMATOR_HH

#include <memory>
#include <string>

#include "core/latency_predictor.hh"
#include "core/model_info.hh"
#include "sched/request.hh"
#include "sched/slot_table.hh"

namespace dysta {

/**
 * Abstract latency estimator.
 *
 * Stateful implementations track requests through the lifecycle
 * hooks (`admit` / `observe` / `release`); the engine-facing
 * policies forward their own callbacks here. The query methods are
 * pure reads and may be called for untracked requests, in which
 * case implementations fall back to their offline estimate.
 */
class LatencyEstimator
{
  public:
    virtual ~LatencyEstimator() = default;

    /** Estimator name as reported in result tables. */
    virtual std::string name() const = 0;

    /** Forget all per-request state (called before every run). */
    virtual void reset() {}

    /** Begin tracking a request (idempotent). */
    virtual void
    admit(const Request& req)
    {
        (void)req;
    }

    /**
     * A layer of `req` just completed (req.nextLayer already
     * advanced); the zero-count monitor reported
     * `monitored_sparsity`, negative when the layer was not
     * captured.
     */
    virtual void
    observe(const Request& req, double monitored_sparsity)
    {
        (void)req;
        (void)monitored_sparsity;
    }

    /** Stop tracking a request (completed or shed). */
    virtual void
    release(const Request& req)
    {
        (void)req;
    }

    /** Estimated latency of the layers still ahead of `req`. */
    virtual double remaining(const Request& req) const = 0;

    /** Estimated isolated (end-to-end) latency of `req`. */
    virtual double isolated(const Request& req) const = 0;
};

/**
 * Static LUT estimator: the profiled average latency of the layers
 * still ahead (Sec. 4.1). Stateless: every query indexes the LUT by
 * the request's ModelKey.
 */
class LutEstimator : public LatencyEstimator
{
  public:
    explicit LutEstimator(const ModelInfoLut& table) : lut(&table) {}

    std::string name() const override { return "lut"; }

    double remaining(const Request& req) const override
    {
        return lut->lookup(req.model).estRemaining(req.nextLayer);
    }

    double isolated(const Request& req) const override
    {
        return lut->lookup(req.model).avgLatency;
    }

  private:
    const ModelInfoLut* lut;
};

/**
 * Sparsity-refined estimator (Alg. 3): per tracked request, a
 * SparseLatencyPredictor turns monitored layer sparsities into a
 * density coefficient gamma scaling the LUT remainder. With
 * `refine` false the predictors never observe, pinning gamma to 1 —
 * the paper's sparsity-blind ablation with the same alpha scaling.
 * Untracked requests fall back to the raw LUT estimate.
 */
class DystaEstimator : public LatencyEstimator
{
  public:
    DystaEstimator(const ModelInfoLut& lut,
                   PredictorConfig predictor_cfg = {},
                   bool refine = true);

    std::string name() const override
    {
        return refineEnabled ? "dysta" : "dysta-unrefined";
    }

    void reset() override;
    void admit(const Request& req) override;
    void observe(const Request& req, double monitored_sparsity) override;
    void release(const Request& req) override;

    double remaining(const Request& req) const override;
    double isolated(const Request& req) const override;

    /** Current sparsity coefficient of a request; 1 if untracked. */
    double gamma(const Request& req) const;

    /** Whether a request currently has a tracked predictor. */
    bool tracks(const Request& req) const
    {
        return predictors.contains(req);
    }

  private:
    const ModelInfoLut* lut;
    PredictorConfig pcfg;
    bool refineEnabled;
    SlotTable<SparseLatencyPredictor> predictors;
};

/**
 * Node-capability view of a shared estimator: rescales another
 * estimator's reference-hardware estimates into the node-local
 * seconds of an accelerator running at `speedFactor` times the
 * reference throughput. This is how heterogeneous fleets get
 * per-node-type estimates without duplicating predictor state: one
 * shared `DystaEstimator` learns from monitored sparsity, and each
 * node class consults it through its own `ScaledEstimator`.
 *
 * Pure view: the lifecycle hooks are deliberately NOT forwarded —
 * the owner of the wrapped estimator drives admit/observe/release
 * exactly once, no matter how many node views exist.
 */
class ScaledEstimator : public LatencyEstimator
{
  public:
    /** @param inner shared base estimator (kept by reference). */
    ScaledEstimator(const LatencyEstimator& inner, double speed_factor);

    std::string name() const override;

    double speedFactor() const { return speed; }

    double remaining(const Request& req) const override
    {
        return inner->remaining(req) / speed;
    }

    double isolated(const Request& req) const override
    {
        return inner->isolated(req) / speed;
    }

  private:
    const LatencyEstimator* inner;
    double speed;
};

/**
 * Ground-truth estimator: reads the request's own Phase-1 trace.
 * Only the Oracle policy may consume it — everything else would be
 * cheating.
 */
class OracleEstimator : public LatencyEstimator
{
  public:
    std::string name() const override { return "oracle"; }

    double remaining(const Request& req) const override
    {
        return req.trueRemaining();
    }

    double isolated(const Request& req) const override
    {
        return req.isolated();
    }
};

} // namespace dysta

#endif // DYSTA_CORE_ESTIMATOR_HH
