/**
 * @file
 * An inference request flowing through the multi-DNN system: the
 * paper's tuple <Model, Pattern, input, SLO> bound to one Phase-1
 * sample trace (the ground-truth execution the engine replays).
 */

#ifndef DYSTA_SCHED_REQUEST_HH
#define DYSTA_SCHED_REQUEST_HH

#include <cstdint>
#include <type_traits>

#include "trace/model_key.hh"
#include "trace/trace.hh"

namespace dysta {

/** One inference request plus its engine-side execution state. */
struct Request
{
    int id = -1;
    /**
     * Dense run-local index of this request's scheduler and
     * estimator state (see sched/slot_table.hh). runSimulation hands
     * slots out from a free list while the request is live;
     * makeRequest seeds it with the id, so requests used outside a
     * run still index distinct state. A hedge clone shares its
     * primary's slot.
     */
    int slot = -1;
    /**
     * The (model, sparsity pattern) pair, interned by the registry or
     * LUT the request was built from; name it through that table.
     */
    ModelKey model;

    /** Ground-truth execution record (not owned). */
    const SampleTrace* trace = nullptr;

    /** Arrival time (seconds). */
    double arrival = 0.0;
    /** Latency SLO multiplier M_slo. */
    double sloMultiplier = 10.0;
    /** Absolute deadline: arrival + M_slo * T_isol. */
    double deadline = 0.0;

    // --- engine-maintained execution state ---
    /** Next layer to execute (== layerCount() when finished). */
    size_t nextLayer = 0;
    /** Accumulated execution time so far. */
    double executedTime = 0.0;
    /**
     * Last time this request held the accelerator (arrival until
     * first dispatched). Drives the Dysta anti-preemption penalty.
     */
    double lastRunEnd = 0.0;
    /** Completion time; negative while in flight. */
    double finishTime = -1.0;
    /**
     * Rejected by cluster admission control (never executed;
     * finishTime stays negative). Single-accelerator runs never shed.
     */
    bool shed = false;

    // --- chaos-engine state (inert defaults when chaos is off) ---
    /** Priority tier (0 = highest); brown-out sheds high tiers first. */
    int tier = 0;
    /** Dispatch attempts consumed beyond the first (retry count). */
    int attempts = 0;
    /** Current attempt's timeout instant; negative when untimed. */
    double timeoutAt = -1.0;
    /**
     * Bumped whenever the in-flight attempt is invalidated (retry,
     * completion, shed): pending Timeout/Hedge calendar events carry
     * the epoch they were armed under and go stale on mismatch. It
     * restarts at 0 for every request (makeRequest, and the run's
     * reset at the arrival pump), so it tells the attempts of one
     * request apart but not two tenants of a recycled arena slot:
     * that is SimEvent::rid's job.
     */
    uint64_t cancelEpoch = 0;
    /**
     * The other copy of a hedged request (primary <-> clone link);
     * nullptr while unhedged. First completion wins, the loser is
     * cancelled, and only the primary is ever recorded/retired.
     */
    Request* hedgePeer = nullptr;
    /** True for the duplicate copy issued by hedged dispatch. */
    bool isHedgeClone = false;
    /**
     * Node whose ready queue currently holds this copy; -1 while
     * unplaced. Maintained by SimNode enqueue/cancel/fail/complete —
     * how the chaos engine finds a copy to pull back.
     */
    int lastNode = -1;
    /**
     * When this copy entered its current node's ready queue (set by
     * SimNode::enqueue). Drives the batch formation hold rule and
     * the fill-wait statistic (src/batch/); inert without batching.
     */
    double nodeEnqueueTime = 0.0;

    size_t layerCount() const { return trace->layers.size(); }
    bool done() const { return nextLayer >= layerCount(); }

    /** Ground-truth isolated execution time of this sample. */
    double isolated() const { return trace->totalLatency; }

    /**
     * Ground-truth remaining execution time. Reserved for the engine
     * and the Oracle scheduler; estimating schedulers must use the
     * ModelInfoLut instead.
     */
    double trueRemaining() const;

    /** Turnaround normalized by isolated time (per-request ANTT). */
    double normalizedTurnaround() const;

    /** Whether the request finished past its deadline. */
    bool violated() const;
};

/**
 * Construct a request with SLO = M_slo * slo_reference_latency,
 * following the paper's (and PREMA's) convention. The reference is
 * the model-pattern pair's profiled average isolated latency: a
 * sample's own latency cannot be known at admission time, so real
 * deployments publish per-model SLOs. Slow samples (dark images,
 * long prompts) therefore face relatively tighter deadlines — the
 * pressure that makes sparsity-aware latency prediction matter.
 */
Request makeRequest(int id, ModelKey model, const SampleTrace& trace,
                    double arrival, double slo_multiplier,
                    double slo_reference_latency);

// Hedge clones and arena recycling copy requests wholesale.
static_assert(std::is_trivially_copyable_v<Request>);

} // namespace dysta

#endif // DYSTA_SCHED_REQUEST_HH
