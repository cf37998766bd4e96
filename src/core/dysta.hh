/**
 * @file
 * The Dysta bi-level dynamic and static scheduler (Sec. 4).
 *
 * Level 1 (software, Alg. 1): on arrival, a request gets an initial
 * score Lat + beta * (SLO - Lat) from the model-info LUT, where Lat is
 * the profiled average latency of its model-pattern pair.
 *
 * Level 2 (hardware, Alg. 2): at every layer completion the running
 * request's remaining-time estimate is refined by the shared
 * `DystaEstimator` (sparse latency predictor, Alg. 3) from the
 * monitored layer sparsity; all queued requests are re-scored as
 *     score_i = T_remain_i + eta * (T_slack_i + T_penalty_i)
 * and the minimum-score request runs next. The penalty term
 * (T_wait / T_isol) / |Q| discourages gratuitous preemption.
 *
 * Ready-set machinery: with the dynamic level disabled the frozen
 * static scores are time-invariant, so the queue is an
 * IndexedMinHeap and pickNext is an O(1) peek. Dynamic scores drift
 * with wall-clock time at per-request rates (slack and penalty),
 * so they cannot sit in a static heap; instead the policy keeps a
 * dense cache of score inputs — remaining estimates re-keyed lazily
 * on sparsity updates — and scans it with O(1) arithmetic per
 * candidate (the legacy path paid a hash lookup, a string-keyed LUT
 * fetch and a predictor re-evaluation per candidate).
 *
 * Ablation switches reproduce the paper's Dysta-w/o-sparse variant
 * (Fig. 13): with the dynamic level disabled the frozen static score
 * orders the queue; with sparsity awareness disabled the predictor's
 * gamma is pinned to 1.
 */

#ifndef DYSTA_CORE_DYSTA_HH
#define DYSTA_CORE_DYSTA_HH

#include <vector>

#include "core/estimator.hh"
#include "core/latency_predictor.hh"
#include "sched/scheduler.hh"
#include "sched/slot_table.hh"
#include "sim/ready_queue.hh"

namespace dysta {

/** Dysta hyperparameters and ablation switches. */
struct DystaConfig
{
    /** Static-level weight between latency and slack (Alg. 1). */
    double beta = 0.5;
    /** Dynamic-level weight of slack + penalty (Alg. 2). */
    double eta = 0.05;
    /** Predictor configuration (strategy, alpha, clamps). */
    PredictorConfig predictor;
    /** Use monitored sparsity (false pins gamma to 1). */
    bool sparsityAware = true;
    /** Enable the dynamic level (false = static scores only). */
    bool dynamicLevel = true;
    /**
     * Floor on the slack term. A request whose deadline is already
     * unattainable stops sinking in score — it competes by remaining
     * time like everyone else — which prevents hopeless requests from
     * monopolizing the accelerator under overload (the EDF death
     * spiral the raw formula would exhibit).
     */
    double slackFloor = 0.0;
    /**
     * Cap on the normalized waiting time inside the penalty term.
     * The penalty exists as preemption hysteresis; uncapped, a short
     * job that waited many times its isolated latency would be
     * crushed by it (wait/isol in the hundreds), inverting the
     * scheduler into longest-wait-last.
     */
    double penaltyCap = 2.0;
    /**
     * Cap on the slack term in units of the request's estimated
     * isolated latency. Requests with comfortable deadlines all sit
     * at the cap — their relative order stays shortest-remaining-
     * first — while requests whose slack drops below slackCapFactor
     * x T_isol get boosted ahead. This keeps the score's two terms
     * commensurable across workloads whose absolute SLO scales
     * differ by orders of magnitude (ms for AttNNs, seconds for
     * CNNs).
     */
    double slackCapFactor = 10.0;
};

/** Per-scenario tuned Dysta hyperparameters (see bench/ablation). */
DystaConfig tunedDystaConfig(bool cnn_workload);

/** The Dysta scheduling policy. */
class DystaScheduler : public Scheduler
{
  public:
    DystaScheduler(const ModelInfoLut& lut, DystaConfig config = {});

    std::string name() const override;

    void reset() override;
    void onArrival(const Request& req, double now) override;
    void onLayerComplete(const Request& req, double now,
                         double monitored_sparsity) override;
    void onComplete(const Request& req, double now) override;

    size_t selectNext(const std::vector<const Request*>& ready,
                      double now) override;

    Request* pickNext(const std::vector<Request*>& ready,
                      double now) override;

    const DystaConfig& config() const { return cfg; }

    /** Current dynamic-score of a queued request (for inspection). */
    double dynamicScore(const Request& req, double now,
                        size_t queue_size) const;

  private:
    /** Cached score inputs of one queued request. */
    struct Entry
    {
        const Request* req;
        double staticScore = 0.0; ///< Alg. 1 score, frozen at arrival
        double remaining = 0.0;   ///< refined estimate (lazy re-key)
        double isol = 0.0;        ///< max(estimated isolated, eps)
        /**
         * Admission order, the explicit tie-break: completions
         * swap-erase the dense cache (O(1)), so storage order is
         * not admission order and score ties must compare seq to
         * match the legacy first-in-queue-order scan.
         */
        int64_t seq = 0;
    };

    DystaConfig cfg;
    std::vector<Entry> order;    ///< dense cache (unordered)
    SlotTable<size_t> position;  ///< request -> index in order
    IndexedMinHeap staticQueue;  ///< static-level heap (dynamic off)
    int64_t nextSeq = 0;

    double scoreFrom(const Entry& e, double now,
                     double queue_size) const;
};

/** Factory for the paper's Dysta-w/o-sparse ablation. */
DystaConfig dystaWithoutSparseConfig();

} // namespace dysta

#endif // DYSTA_CORE_DYSTA_HH
