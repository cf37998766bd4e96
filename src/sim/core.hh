/**
 * @file
 * The unified discrete-event simulation core.
 *
 * `runSimulation` is the single implementation of the paper's
 * Fig. 7 layer-granular execution loop. A global `EventQueue`
 * calendar (arrival / layer-complete / decision events) drives N
 * `SimNode`s, each owning a ready queue and a per-node `Scheduler`;
 * a front-end `Dispatcher` places every arriving request on one
 * node, optionally behind SLO-aware admission control whose
 * estimates flow through the `LatencyEstimator` layer.
 *
 * `SimConfig` is the only runtime configuration. Scenario cells
 * resolve their spec strings into one in `runSweepCell`
 * (src/exp/sweep.cc); `runSingleNode` (src/sched/engine.hh) runs
 * this function with one node and a `SingleNodeDispatcher`.
 * Preemption and decision counting are therefore defined once, in
 * `SimNode`, whatever the fleet. Executed layer slices are recorded
 * once, as Telemetry `LayerComplete` events (`SimConfig::telemetry`).
 */

#ifndef DYSTA_SIM_CORE_HH
#define DYSTA_SIM_CORE_HH

#include <functional>
#include <memory>
#include <vector>

#include "batch/batch.hh"
#include "chaos/chaos.hh"
#include "core/estimator.hh"
#include "core/model_info.hh"
#include "sched/metrics.hh"
#include "sim/dispatcher.hh"
#include "sim/event_queue.hh"
#include "sim/node.hh"
#include "sim/source.hh"

namespace dysta {

class Telemetry;
class FailureProcess;

/**
 * The one event calendar there is (a one-value remnant; see
 * SimConfig::calendar).
 */
enum class CalendarKind : uint8_t
{
    Heap = 0,
};

/**
 * The one way a run records its layer slices: as Telemetry
 * `LayerComplete` events (a one-value remnant; see
 * SimConfig::recordEvents).
 */
enum class EventRecording : uint8_t
{
    Telemetry = 0,
};

/** One scheduled availability change of one node. */
struct NodeEvent
{
    /** When the transition happens. */
    double time = 0.0;
    /** Index of the node changing state. */
    int node = 0;
    NodeEventKind kind = NodeEventKind::Drain;
};

/** What happens to in-flight work when its node fails. */
enum class RestartPolicy : uint8_t
{
    /**
     * Started requests (their on-node activations are lost) restart
     * from layer 0 and go back through the dispatcher like fresh
     * work. Queued-but-not-started requests always just re-dispatch.
     */
    Restart = 0,
    /** Started requests are shed; only untouched work re-dispatches. */
    Shed = 1,
};

/** SLO-aware admission control knobs. */
struct AdmissionConfig
{
    /** Shed hopeless requests at the front door. */
    bool enabled = false;
    /**
     * Conservativeness multiplier on the estimated completion delay:
     * a node can serve a request when
     *     now + margin * (backlog + isolated) / speed <= deadline.
     * When the dispatcher's chosen node fails the test, the request
     * falls back to the node with the smallest estimated delay and
     * is shed only if that node fails too. Values < 1 admit
     * optimistically, > 1 shed early.
     */
    double margin = 1.0;
};

/** Simulation topology and knobs. */
struct SimConfig
{
    /** One profile per node (size = fleet size). */
    std::vector<NodeProfile> nodes;
    /**
     * Unread: layer slices are recorded only by `telemetry`. Kept
     * only because the benchmark harness (perfbench/src/tracing.cc)
     * still copies EngineConfig::recordEvents into it; deleted with
     * `calendar` below in the next benchmark-touching change.
     */
    EventRecording recordEvents{};
    /** Front-door load shedding. */
    AdmissionConfig admission;
    /**
     * LUT backing the default admission estimator (not owned).
     * Required when admission is enabled and no explicit
     * `admissionEstimator` is given; unused otherwise.
     */
    const ModelInfoLut* lut = nullptr;
    /**
     * Optional admission estimator override (not owned). Defaults
     * to a `LutEstimator` over `lut` — inject e.g. an
     * `OracleEstimator` to bound what perfect admission could do.
     */
    const LatencyEstimator* admissionEstimator = nullptr;
    /**
     * Scheduled drain/fail/recover transitions (maintenance windows,
     * failure injection). Applied at their times with the calendar's
     * deterministic tie-breaks; same-instant transitions of distinct
     * nodes resolve by node id, of one node by list order.
     */
    std::vector<NodeEvent> nodeEvents;
    /** Fate of started requests displaced by a node failure. */
    RestartPolicy onFailure = RestartPolicy::Restart;
    /**
     * Optional telemetry sink (not owned; see src/obs/telemetry.hh).
     * nullptr — the default — disables all emission: the run is
     * bit-identical to one without the subsystem.
     */
    Telemetry* telemetry = nullptr;
    /**
     * Unread: the run loop always uses its one EventQueue. Kept only
     * because the benchmark harness (perfbench/src/tracing.cc) still
     * copies SweepCell::calendar into it; deleted together with that
     * line in the next benchmark-touching change.
     */
    CalendarKind calendar{};
    /**
     * Metrics accumulation of both overloads: Exact keeps one small
     * record per completed request, Sketch is O(1) memory for
     * megascale runs (see MetricsKind).
     */
    MetricsKind metricsKind = MetricsKind::Exact;

    // --- chaos engine (src/chaos/) -----------------------------------
    /**
     * Stochastic fault injector (not owned; nullptr = none). Armed
     * via reset(nodes, chaosSeed) before the event loop, then pumped
     * through the same one-pending-event contract as arrivals. Its
     * fail/recover transitions compose with the scripted
     * `nodeEvents` above.
     */
    FailureProcess* chaos = nullptr;
    /**
     * Seed deriving the chaos RNG stream and the deterministic tier
     * assignment — independent of the workload streams, so chaos-off
     * runs are bit-identical to builds without the subsystem.
     */
    uint64_t chaosSeed = 1;
    /** Deadline timeouts + budget-capped retries (disabled default). */
    RetryConfig retry;
    /** Tail-latency hedged dispatch (disabled default). */
    HedgeConfig hedge;
    /**
     * Tiered brown-out degradation (disabled default; requires
     * admission control).
     */
    BrownoutConfig brownout;
    /**
     * Priority-tier admission weights, highest priority first; empty
     * = every request in tier 0. Assignment is a deterministic hash
     * of (request id, chaosSeed) — no workload RNG is consumed.
     */
    std::vector<double> tierWeights;

    // --- dynamic batching (src/batch/) -------------------------------
    /**
     * Batch formation/execution knobs (disabled default). Every node
     * executes steps: the scheduler picks the anchor, the
     * composition policy fills the batch, and each step costs the
     * slowest member's layer latency plus the marginal-member
     * overhead. Disabled, a node runs batches of one (no hold, no
     * batch stats), bit-identical to builds without the subsystem.
     * Enabled, incompatible with rebalancing (work-stealing)
     * dispatchers.
     */
    BatchConfig batching;
};

/** Homogeneous fleet of `n` reference-speed nodes ("node0", ...). */
SimConfig homogeneousCluster(size_t n);

/** Result of one simulation run. */
struct SimResult
{
    /**
     * Metrics over completed requests; shed requests in `shed`,
     * resilience and batching stats when those are active.
     */
    Metrics metrics;
    /** Preemptions summed over nodes. */
    size_t preemptions = 0;
    /** Scheduling decisions summed over nodes. */
    size_t decisions = 0;
    /** Completed-request count per node (load balance view). */
    std::vector<size_t> perNodeCompleted;
    /** Calendar events processed (events/sec denominators). */
    size_t eventsProcessed = 0;
};

/**
 * Builds one per-node scheduling policy. Invoked once per node per
 * run so every node owns independent policy state.
 */
using PolicyFactory = std::function<std::unique_ptr<Scheduler>(
    const NodeProfile& profile, int node_id)>;

/**
 * Non-owning adapter presenting a caller-owned policy as a
 * `unique_ptr`-owned one, so a one-node run over a `Scheduler&`
 * (`runSingleNode`) can feed it to a `PolicyFactory`. Forwards every
 * callback, including the heap-backed `pickNext` fast path.
 */
class ForwardingScheduler : public Scheduler
{
  public:
    explicit ForwardingScheduler(Scheduler& target) : inner(&target) {}

    std::string name() const override { return inner->name(); }
    void reset() override { inner->reset(); }

    void
    onArrival(const Request& req, double now) override
    {
        inner->onArrival(req, now);
    }

    void
    onLayerComplete(const Request& req, double now,
                    double monitored_sparsity) override
    {
        inner->onLayerComplete(req, now, monitored_sparsity);
    }

    void
    onComplete(const Request& req, double now) override
    {
        inner->onComplete(req, now);
    }

    void
    onDequeue(const Request& req, double now) override
    {
        inner->onDequeue(req, now);
    }

    size_t
    selectNext(const std::vector<const Request*>& ready,
               double now) override
    {
        return inner->selectNext(ready, now);
    }

    Request*
    pickNext(const std::vector<Request*>& ready, double now) override
    {
        return inner->pickNext(ready, now);
    }

  private:
    Scheduler* inner;
};

/**
 * Serve all requests to completion (or shed them) under
 * `dispatcher`, with per-node policies from `make_policy`.
 * Requests are mutated in place (progress, finish times, shed
 * flags). Runs the streaming overload over a MaterializedSource, so
 * the two overloads agree bit for bit under either metrics kind;
 * the run state of each request is reset when the arrival pump
 * takes it from the source, as for every source, so a vector can
 * be run again.
 * @pre every request has a trace with at least one layer
 */
SimResult runSimulation(const SimConfig& cfg,
                        std::vector<Request>& requests,
                        Dispatcher& dispatcher,
                        const PolicyFactory& make_policy);

/**
 * Streaming overload: requests come from `source` one at a time
 * (exactly one pending arrival lives in the calendar) and are
 * retired back to it on completion or shed, so memory stays bounded
 * by the in-flight set. Metrics accumulate through StreamingMetrics
 * per cfg.metricsKind. For the same workload seed this produces the
 * bit-identical schedule and Metrics as the materialized overload.
 * @pre the source emits arrivals in non-decreasing time order
 */
SimResult runSimulation(const SimConfig& cfg, ArrivalSource& source,
                        Dispatcher& dispatcher,
                        const PolicyFactory& make_policy);

} // namespace dysta

#endif // DYSTA_SIM_CORE_HH
