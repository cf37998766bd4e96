/**
 * @file
 * Scheduler interface for the layer-granular multi-DNN engine.
 *
 * The engine invokes the scheduler whenever a layer (or layer block)
 * of the running request completes and whenever the accelerator is
 * idle with work pending — the paper's preemptive time-multiplexing
 * model (Sec. 4.2.2). Schedulers observe request progress and the
 * monitored layer sparsity; honest schedulers estimate latencies
 * through a `LatencyEstimator` built on the offline ModelInfoLut,
 * never from the ground-truth trace.
 *
 * Two selection entry points exist:
 *  - `selectNext(view, now)` — the reference implementation over an
 *    explicit candidate view. Subclasses must provide it; it is the
 *    semantic definition of the policy and what the property tests
 *    compare against.
 *  - `pickNext(ready, now)` — what the simulation core actually
 *    calls. The default fills a per-scheduler scratch view (no
 *    allocation once it has grown) and delegates to selectNext;
 *    built-in policies override it with heap-backed or densely
 *    cached fast paths that return the *same* request in O(log n)
 *    or O(1)-per-candidate time. Overriding subclasses must keep
 *    both paths decision-equivalent.
 *
 * Subclasses that override the lifecycle hooks (onArrival /
 * onLayerComplete / onComplete / reset) must call the base-class
 * implementation, which forwards to the policy's estimator.
 */

#ifndef DYSTA_SCHED_SCHEDULER_HH
#define DYSTA_SCHED_SCHEDULER_HH

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.hh"
#include "sched/request.hh"

namespace dysta {

/** Abstract scheduling policy. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Policy name as reported in result tables. */
    virtual std::string name() const = 0;

    /** Clear all per-run state (called before every engine run). */
    virtual void
    reset()
    {
        if (est)
            est->reset();
    }

    /** A new request entered the system at time `now`. */
    virtual void
    onArrival(const Request& req, double now)
    {
        (void)now;
        if (est)
            est->admit(req);
    }

    /**
     * A layer of `req` finished at `now`; the zero-count monitor
     * reported `monitored_sparsity` for that layer.
     */
    virtual void
    onLayerComplete(const Request& req, double now,
                    double monitored_sparsity)
    {
        (void)now;
        if (est)
            est->observe(req, monitored_sparsity);
    }

    /** `req` fully completed at `now`. */
    virtual void
    onComplete(const Request& req, double now)
    {
        (void)now;
        if (est)
            est->release(req);
    }

    /**
     * `req` left this node's queue without completing — migrated to
     * another node or displaced by a node failure. The policy must
     * forget it exactly as if it had completed (estimator release,
     * queue/cache erase); the default delegates to onComplete, which
     * performs precisely that cleanup for every built-in policy
     * (their onComplete handlers tolerate requests they no longer
     * track). Override only if completion has policy side effects a
     * dequeue must not trigger.
     */
    virtual void
    onDequeue(const Request& req, double now)
    {
        onComplete(req, now);
    }

    /**
     * Choose the next request to occupy the accelerator.
     * @param ready all admitted, unfinished requests (non-empty)
     * @return index into `ready`
     */
    virtual size_t selectNext(const std::vector<const Request*>& ready,
                              double now) = 0;

    /**
     * Choose the next request directly from the engine-maintained
     * ready set (admission order, non-empty). Must return an element
     * of `ready` and agree with selectNext on the choice.
     */
    virtual Request* pickNext(const std::vector<Request*>& ready,
                              double now);

    /** This policy's latency estimator (nullptr for e.g. FCFS). */
    const LatencyEstimator* estimator() const { return est.get(); }

  protected:
    Scheduler() = default;

    /** Construct with the estimator all latency queries go through. */
    explicit Scheduler(std::unique_ptr<LatencyEstimator> estimator)
        : est(std::move(estimator))
    {
    }

    /** Estimator owned by this policy (may be null). */
    std::unique_ptr<LatencyEstimator> est;

  private:
    /** The default pickNext's candidate view, reused across calls. */
    std::vector<const Request*> pickView;
};

} // namespace dysta

#endif // DYSTA_SCHED_SCHEDULER_HH
