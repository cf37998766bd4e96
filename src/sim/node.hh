/**
 * @file
 * One accelerator node of the unified simulation core.
 *
 * A `SimNode` owns a local ready queue and a per-node scheduling
 * policy (any `Scheduler`: FCFS ... Dysta) and executes requests
 * with layer-granular, non-preemptible-block semantics — the
 * paper's Fig. 7 loop, implemented exactly once in the repository.
 * `runSimulation` (src/sim/core.hh) drives N of them off one event
 * calendar; the single-accelerator `SchedulerEngine` is the 1-node
 * instance of that run.
 *
 * Heterogeneity is first-class: every node carries a `NodeHw`
 * accelerator configuration (hardware class, PE count, clock) from
 * which its relative throughput is derived, so a cluster can mix
 * full-size Sanger-class nodes with smaller Eyeriss-class nodes
 * against one trace pool (`nodeProfileFromHw`, and the named classes
 * in src/workload/cluster_spec.hh). Dispatchers see this through the
 * `NodeCapability` view, and the front-end can migrate queued-but-
 * not-started requests between nodes (`removeQueued` + `enqueue`).
 * Nodes are also dynamic: the calendar's drain/fail/recover events
 * (src/sim/core.hh) drive the `NodeState` lifecycle — a draining
 * node finishes its queue but accepts no new work, a failed node
 * drops its queue back to the dispatcher for re-placement.
 *
 * Counting semantics (identical for every fleet size, by
 * construction):
 *  - a *decision* is one policy invocation at a block boundary
 *    (`pickNext`), including the trivial single-candidate case;
 *  - a *preemption* is a decision that switches away from a request
 *    that has started (nextLayer > 0) and not finished.
 */

#ifndef DYSTA_SIM_NODE_HH
#define DYSTA_SIM_NODE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch.hh"
#include "sched/request.hh"
#include "sched/scheduler.hh"

namespace dysta {

class Telemetry;

/**
 * Per-node accelerator configuration. The reference hardware is the
 * full-size Sanger array the Phase-1 traces were profiled on; a
 * node's relative throughput is
 *     speed = (peCount * clockHz * derate) / (refPe * refClock)
 * where `derate` absorbs cross-architecture efficiency differences
 * that PE count and clock alone do not capture (dataflow, sparsity
 * support). Calibrated relative throughput, not cycle-accurate
 * cross-ISA simulation.
 */
struct NodeHw
{
    /** Hardware class name as reported in capability views. */
    std::string hwClass = "reference";
    /** Processing elements. */
    int peCount = 1024;
    /** Core clock in Hz. */
    double clockHz = 530e6;
    /** Cross-class efficiency normalization factor. */
    double derate = 1.0;
};

/** Reference hardware the profiled traces replay at speed 1.0. */
NodeHw referenceNodeHw();

/** Relative throughput of `hw` against the reference hardware. */
double hwSpeedFactor(const NodeHw& hw);

/** Availability lifecycle of a node (driven by calendar events). */
enum class NodeState : uint8_t
{
    Up = 0,       ///< serving; accepts new work
    Draining = 1, ///< finishes queued work; accepts no new work
    Down = 2,     ///< failed; queue was dropped back to the dispatcher
};

std::string toString(NodeState state);

/** Static description of one accelerator node. */
struct NodeProfile
{
    /** Profile name as reported in result tables. */
    std::string name = "eyeriss-v2";
    /** Accelerator configuration this node runs. */
    NodeHw hw;
    /**
     * Relative throughput: trace layer latencies are divided by this.
     * 1.0 replays the Phase-1 traces verbatim. `nodeProfileFromHw`
     * derives it from `hw`; hand-built profiles may set it directly.
     */
    double speedFactor = 1.0;
    /** Time charged per scheduling decision on this node. */
    double decisionOverheadSec = 0.0;
    /** Layers per non-preemptible block (see EngineConfig). */
    size_t layerBlockSize = 1;
    /**
     * Per-node scheduling-policy override (makeSchedulerByName);
     * empty inherits the run's default. From the fleet-spec suffix
     * "sanger:2=dysta" (src/workload/cluster_spec.hh).
     */
    std::string scheduler;
    /**
     * Correlated fault domain ("rack0"): a domain-scoped
     * FailureProcess takes every member down together. Empty = no
     * domain (the node fails independently). From the fleet-spec
     * suffix "sanger:4@rack0" (src/workload/cluster_spec.hh).
     */
    std::string domain;
};

/** Full-size node replaying traces at profiled speed. */
NodeProfile referenceNodeProfile(const std::string& name = "reference");

/** A node with `speed` times the reference throughput. */
NodeProfile scaledNodeProfile(const std::string& name, double speed);

/** A node whose speed factor is derived from its hardware config. */
NodeProfile nodeProfileFromHw(const std::string& name, NodeHw hw);

/**
 * What a dispatcher may know about a node when placing or migrating
 * work: identity, hardware class and relative speed, availability,
 * and the current queue depth. Estimated backlog in node-seconds is
 * policy business (see ScaledEstimator) and not part of the view.
 */
struct NodeCapability
{
    int id = -1;
    NodeState state = NodeState::Up;
    /** Up and accepting new work. */
    bool available = true;
    std::string hwClass;
    double speedFactor = 1.0;
    /** Queued plus running request count. */
    size_t outstanding = 0;
};

/**
 * Execution state of one accelerator node inside the simulation
 * core. The event loop drives it event by event; the node never
 * advances time itself.
 */
class SimNode
{
  public:
    SimNode(int id, NodeProfile profile,
            std::unique_ptr<Scheduler> policy);

    int id() const { return nodeId; }
    const NodeProfile& profile() const { return prof; }
    Scheduler& policy() { return *sched; }
    const Scheduler& policy() const { return *sched; }

    /** Requests placed on this node and not yet completed. */
    const std::vector<Request*>& queue() const { return ready; }

    /** Queued plus running request count. */
    size_t outstanding() const { return ready.size(); }

    /** Whether a layer is currently executing. */
    bool busy() const { return running != nullptr; }

    /** Currently executing request (nullptr when idle). */
    const Request* current() const { return running; }

    /** Latency of `layer` on this node (speed-scaled). */
    double layerLatency(const LayerTrace& layer) const;

    /** Completed-request count (for per-node load reporting). */
    size_t completedCount() const { return numCompleted; }
    size_t preemptionCount() const { return numPreemptions; }
    size_t decisionCount() const { return numDecisions; }

    // --- availability lifecycle -------------------------------------

    NodeState state() const { return nodeState; }

    /** Whether the node accepts new work (Up, not draining/down). */
    bool available() const { return nodeState == NodeState::Up; }

    /** The dispatcher-facing view of this node. */
    NodeCapability capability() const;

    /**
     * Fail the node: it goes Down, its in-flight layer is abandoned
     * and every queued request (running one included, in queue
     * order) is dequeued from the policy and returned for the caller
     * to re-dispatch, restart or shed. Bumps the epoch so pending
     * layer-complete events for the abandoned layer are recognized
     * as stale. Idempotent on a Down node (returns empty).
     */
    std::vector<Request*> fail(double now);

    /** Stop accepting new work; queued work keeps executing. */
    void drain();

    /** Return to Up from Draining or Down. */
    void recover();

    /**
     * Stale-event guard: incremented by fail(), stamped into
     * layer-complete calendar events at push time.
     */
    uint64_t epoch() const { return failEpoch; }

    /** Place an arriving request on this node at time `now`. */
    void enqueue(Request* req, double now);

    /**
     * Remove a queued-but-not-started request (migration): the
     * request leaves this node's ready queue and its policy forgets
     * it (`Scheduler::onDequeue`). panic() unless the request is
     * queued here, has executed no layer, and is not in flight.
     */
    void removeQueued(Request* req, double now);

    /** What SimNode::cancel found and removed. */
    enum class CancelOutcome : uint8_t
    {
        NotHere = 0, ///< request was not on this node
        Queued = 1,  ///< removed from the ready queue (not in flight)
        Running = 2, ///< its layer was in flight; epoch bumped
    };

    /**
     * Pull a request back wherever it sits (chaos engine: timeouts
     * and hedge cancellation). Unlike `removeQueued` the request may
     * have started: partial progress is simply abandoned, and when
     * its layer is in flight the fail-epoch is bumped so the pending
     * layer-complete event goes stale — the caller must then push a
     * decision sweep so this node picks up other work.
     */
    CancelOutcome cancel(Request* req, double now);

    /**
     * Invoke the policy and start the first layer of a new
     * non-preemptible block.
     * @pre !busy() && outstanding() > 0
     * @return completion time of the started layer
     */
    double beginBlock(double now);

    /**
     * Finish the in-flight layer at its completion time.
     * @return the completed request if it just finished, else nullptr
     */
    Request* completeLayer();

    /**
     * Whether the node should immediately continue with the next
     * layer of the current block (request unfinished, block not
     * exhausted). @pre !busy() (layer just completed)
     */
    bool blockContinues() const;

    /** Start the next layer of the current block. @pre blockContinues() */
    double continueBlock(double now);

    /** Monitored sparsity reported by the layer just completed. */
    double lastMonitoredSparsity() const { return lastSparsity; }

    // --- dynamic batching (src/batch/) -------------------------------
    // With batching enabled the node executes *batch steps* instead
    // of single layers: the scheduler still picks the block's anchor
    // (decision/preemption counting unchanged), the composition
    // policy fills the batch from the ready queue, and every member
    // advances its own next layer per step. The step's wall time is
    // the slowest member's layer latency inflated by the marginal-
    // member overhead (see BatchConfig). Members may join a running
    // batch at layer boundaries (continuous batching).

    /** Enable batch execution for this run. */
    void setBatching(const BatchConfig& cfg) { batchCfg = cfg; }

    /**
     * Whether formation should wait for the batch to fill: fewer
     * than maxSize ready requests and the oldest has not yet waited
     * maxDelaySec. Sets `release_at` to when the hold expires.
     */
    bool batchShouldHold(double now, double* release_at) const;

    /**
     * Invoke the policy for the batch anchor, compose the batch and
     * start its first step. @pre !busy() && outstanding() > 0
     * @return completion time of the started step
     */
    double beginBatch(double now);

    /**
     * Finish the in-flight batch step at its completion time: every
     * member advances one layer; finished members retire.
     * @return the members that just completed, in batch order
     */
    std::vector<Request*> completeBatchStep();

    /**
     * Admit new members at a layer boundary (continuous batching),
     * up to maxSize, chosen by the composition policy.
     * @pre !busy() && blockContinues()
     */
    void batchJoin(double now);

    /** Start the next step of the current batch. @pre blockContinues() */
    double continueBatchStep(double now);

    /** Whether `req` is a member of the in-flight batch step. */
    bool inActiveBatch(const Request* req) const;

    /** Members of the current batch (valid while busy()). */
    const std::vector<Request*>& activeBatch() const { return batch; }

    /** Wall time of the in-flight batch step (valid while busy()). */
    double batchStepLatency() const { return batchStepLat; }

    /** Batch-execution counters accumulated over the run. */
    struct BatchCounters
    {
        size_t formed = 0;      ///< batches formed (beginBatch calls)
        size_t joins = 0;       ///< members admitted at layer boundaries
        size_t steps = 0;       ///< batch steps executed
        size_t memberSteps = 0; ///< member-layers executed across steps
        /** First-execution queue delay summed over members. */
        double fillWaitSec = 0.0;
        size_t fillWaitCount = 0;
        /** Member-seconds spent waiting on a denser batch peer. */
        double stragglerTaxSec = 0.0;
    };

    const BatchCounters& batchCounters() const { return bstats; }

    /**
     * Attach a telemetry sink (not owned; nullptr detaches). The
     * node emits exec-start, layer-complete, preempt and complete
     * events; the surrounding event loop emits the rest.
     */
    void setTelemetry(Telemetry* sink) { telemetry = sink; }

  private:
    int nodeId;
    NodeProfile prof;
    std::unique_ptr<Scheduler> sched;

    std::vector<Request*> ready;
    Request* running = nullptr;      ///< request owning the in-flight layer
    Request* blockOwner = nullptr;   ///< request owning the current block
    size_t blockExecuted = 0;        ///< layers done in the current block
    double layerEnd = 0.0;           ///< completion time of in-flight layer
    double lastSparsity = -1.0;
    const Request* lastRun = nullptr; ///< preemption detection

    NodeState nodeState = NodeState::Up;
    uint64_t failEpoch = 0;
    Telemetry* telemetry = nullptr; ///< optional sink (not owned)

    size_t numCompleted = 0;
    size_t numPreemptions = 0;
    size_t numDecisions = 0;

    BatchConfig batchCfg;            ///< disabled by default
    std::vector<Request*> batch;     ///< current batch members
    double batchStepBase = 0.0;      ///< max member latency of the step
    double batchStepLat = 0.0;       ///< step wall time (with overhead)
    BatchCounters bstats;

    double startLayer(double now);
    void composeBatch(double now, bool at_join);
    double startBatchStep(double now);
};

} // namespace dysta

#endif // DYSTA_SIM_NODE_HH
