/**
 * @file
 * The simulation telemetry layer: structured event tracing, per-node
 * time series, and estimator accuracy probes.
 *
 * The simulator used to report only end-of-run aggregates (`Metrics`),
 * so there was no record of *when* a node saturated, *why* a request
 * was shed, or how far a Dysta/EMA prediction was from the actual
 * remaining latency. A `Telemetry` instance is an optional sink the
 * unified simulation core (src/sim/core.cc, src/sim/node.cc) feeds
 * with sim-time-stamped events covering the full request lifecycle
 * (arrival, dispatch, shed, execution start, layer complete, preempt,
 * migrate, restart, complete) and node lifecycle (drain/fail/
 * recover). From that stream it maintains:
 *
 *  - a structured event log (`events()`) exporters consume — the
 *    Chrome-trace writer (src/obs/chrome_trace.hh) and the cluster
 *    Gantt renderer (src/exp/gantt.hh);
 *  - per-node time series (queue depth, busy/idle) and counters
 *    (dispatched/completed/layers/preemptions/migrations/failures);
 *  - estimator accuracy probes: shadow `LatencyEstimator` instances
 *    driven through the same admit/observe/release lifecycle as the
 *    policies' own estimators, with the prediction-vs-ground-truth
 *    residual of every remaining-latency query accumulated into
 *    online bias/RMSE (`EstimatorAccuracy`, surfaced in `Metrics`
 *    and every report).
 *
 * Disabled (the default, a null pointer in the sim config) telemetry
 * costs one branch per emission point: runs are bit-identical to a
 * build without the subsystem, which bench/micro_sim_core.cc gates.
 * Enabled, the output is deterministic — every timestamp is sim
 * time, and event order follows the calendar's deterministic
 * tie-breaks — so exported traces are identical for any --jobs count.
 */

#ifndef DYSTA_OBS_TELEMETRY_HH
#define DYSTA_OBS_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.hh"
#include "sched/metrics.hh"
#include "sched/request.hh"
#include "sim/event_queue.hh"

namespace dysta {

/** Telemetry event types, in lifecycle order. */
enum class TeleKind : uint8_t
{
    Arrival = 0,       ///< request reached the front door
    Dispatch = 1,      ///< placed on a node (admission passed)
    Shed = 2,          ///< dropped (admission, fleet down, failure)
    ExecStart = 3,     ///< a layer starts executing on a node
    LayerComplete = 4, ///< a layer finished (monitored sparsity known)
    Preempt = 5,       ///< a started request lost the accelerator
    Migrate = 6,       ///< queued request moved between nodes
    Restart = 7,       ///< started request restarts after a failure
    Complete = 8,      ///< request finished its last layer
    NodeDrain = 9,     ///< node stops accepting new work
    NodeFail = 10,     ///< node went down; queue displaced
    NodeRecover = 11,  ///< node back in service
    Timeout = 12,      ///< an attempt's deadline allowance expired
    Retry = 13,        ///< request re-dispatched after a timeout
    Hedge = 14,        ///< duplicate copy issued to a second node
    HedgeCancel = 15,  ///< losing copy of a hedge pulled back
    Brownout = 16,     ///< admission shed under brown-out escalation
    BatchForm = 17,    ///< a batch formed around its anchor request
    BatchJoin = 18,    ///< request joined a running batch mid-block
};

/** Number of TeleKind values (the run-total array's size). */
constexpr size_t kNumTeleKinds =
    static_cast<size_t>(TeleKind::BatchJoin) + 1;

std::string toString(TeleKind kind);

/** One structured, sim-time-stamped telemetry record. */
struct TelemetryEvent
{
    double time = 0.0;
    TeleKind kind = TeleKind::Arrival;
    /** Node the event happened on; -1 for front-door events. */
    int node = -1;
    /** Request id; -1 for node lifecycle events. */
    int request = -1;
    /** Layer index (ExecStart/LayerComplete); -1 otherwise. */
    int layer = -1;
    /** Execution slice start (LayerComplete only). */
    double start = 0.0;
    /**
     * Kind-specific payload: monitored sparsity (LayerComplete),
     * queue depth after the event (Dispatch/Complete/Migrate).
     */
    double value = 0.0;
    /** Source node of a Migrate; -1 otherwise. */
    int aux = -1;
};

/** Which channels an enabled Telemetry instance maintains. */
struct TelemetryConfig
{
    /** Keep the structured event log (exporters need it). */
    bool recordEvents = true;
    /** Keep per-node queue-depth/busy time series samples. */
    bool recordSeries = true;
    /**
     * Retention cap per channel (the event log, and each node's
     * sample series); 0 = unbounded. When set, each channel becomes
     * a ring buffer keeping the most recent entries, so
     * --chrome-trace on a megascale run stays O(maxEvents) memory
     * instead of O(requests). Counters and probes are unaffected —
     * only the replayable logs are capped. Exporters read the
     * chronologically-ordered views (`orderedEvents`,
     * `orderedSamples`) which undo the ring rotation.
     */
    size_t maxEvents = 0;
};

/** One (time, queue depth, running) sample of a node series. */
struct NodeSample
{
    double time = 0.0;
    int queueDepth = 0;
    /** Whether a layer was executing right after this instant. */
    bool running = false;
};

/** Per-node counters and series accumulated over one run. */
struct NodeTelemetry
{
    /** Change-driven samples (recordSeries only). */
    std::vector<NodeSample> samples;
    double busySec = 0.0;
    size_t layersStarted = 0;
    size_t layersCompleted = 0;
    /** Layers in flight when the node failed (never completed). */
    size_t layersAbandoned = 0;
    size_t dispatched = 0;
    size_t completed = 0;
    size_t preemptions = 0;
    size_t migratedIn = 0;
    size_t migratedOut = 0;
    size_t drains = 0;
    size_t fails = 0;
    size_t recovers = 0;
    /** Largest queue depth observed. */
    int peakQueueDepth = 0;

    // --- live state (maintained by the hooks) ------------------------
    int depth = 0;
    bool running = false;
    /** Ring rotation point of `samples` when the cap is active. */
    size_t sampleHead = 0;
    /** Samples overwritten by the ring (0 = series is complete). */
    size_t samplesDropped = 0;
};

/**
 * Sink for the simulation core's telemetry hooks. One instance per
 * run (`runSimulation` calls `beginRun`/`endRun` around the event
 * loop); instances are not thread-safe — parallel sweeps construct
 * one per cell.
 */
class Telemetry
{
  public:
    explicit Telemetry(TelemetryConfig cfg = {});

    /**
     * Register an estimator accuracy probe. The estimator is driven
     * through admit (at dispatch) / observe (at every layer
     * completion) / release (at completion or shed), and after each
     * observed layer of an unfinished request the residual
     *     estimated remaining - ground-truth remaining
     * is accumulated (both in reference-hardware seconds, so probes
     * are comparable across heterogeneous fleets). At dispatch the
     * isolated-latency residual is accumulated separately.
     */
    void addProbe(const std::string& name,
                  std::unique_ptr<LatencyEstimator> estimator);

    // --- sink interface (called by the simulation core) --------------
    /** Reset all state for a run over `num_nodes` nodes. */
    void beginRun(size_t num_nodes);
    /** Final sim time; flushes nothing but closes the run window. */
    void endRun(double now);

    void arrival(const Request& req, double now);
    void dispatch(const Request& req, int node, size_t depth,
                  double now);
    void shed(const Request& req, double now);
    void execStart(const Request& req, int node, size_t layer,
                   double now);
    void layerComplete(const Request& req, int node, size_t layer,
                       double start, double end, double sparsity);
    void complete(const Request& req, int node, size_t depth,
                  double now);
    void preempt(const Request& req, int node, double now);
    void migrate(const Request& req, int from, int to,
                 size_t from_depth, size_t to_depth, double now);
    void restartFromFailure(const Request& req, int node, double now);
    void nodeChange(int node, NodeEventKind kind, double now);

    // --- chaos-engine hooks (src/chaos/) -----------------------------
    /** `req`'s attempt number `attempt` timed out on `node`. */
    void timeout(const Request& req, int node, int attempt,
                 double now);
    /** `req` re-enters the front door as attempt `attempt`. */
    void retry(const Request& req, int attempt, double now);
    /** A duplicate of `req` was issued to `node`. */
    void hedge(const Request& req, int node, double now);
    /** The losing copy of a hedge was pulled back from `node`. */
    void hedgeCancel(const Request& req, int node, double now);
    /** `req` was shed by brown-out-escalated admission control. */
    void brownout(const Request& req, double now);

    // --- dynamic-batching hooks (src/batch/) -------------------------
    /** A batch of `occupancy` members formed on `node`; `req` is its
     * anchor (the scheduler's pick). */
    void batchForm(const Request& req, int node, size_t occupancy,
                   double now);
    /** `req` joined the running batch on `node` at the boundary
     * before its layer `layer` (continuous batching). */
    void batchJoin(const Request& req, int node, size_t layer,
                   double now);

    // --- results ------------------------------------------------------
    const TelemetryConfig& config() const { return cfg; }
    /**
     * Raw event storage. With an active `maxEvents` cap this is the
     * ring in rotation order — exporters must use `orderedEvents()`.
     */
    const std::vector<TelemetryEvent>& events() const { return log; }
    const std::vector<NodeTelemetry>& nodes() const
    {
        return perNode;
    }

    /**
     * The retained event log in chronological order (undoing the
     * ring rotation when `maxEvents` capped it). With no cap this is
     * simply a copy of `events()`.
     */
    std::vector<TelemetryEvent> orderedEvents() const;

    /** One node's retained samples in chronological order. */
    std::vector<NodeSample> orderedSamples(size_t node) const;

    /** Events overwritten by the ring (0 = the log is complete). */
    size_t eventsDropped() const { return numDroppedEvents; }

    /** Accuracy snapshot of every probe (see EstimatorAccuracy). */
    std::vector<EstimatorAccuracy> accuracy() const;

    /** Sim time endRun() was called with (run makespan proxy). */
    double runEnd() const { return endTime; }

    // --- run totals ---------------------------------------------------
    /**
     * Events of `kind` emitted this run, counted whether or not the
     * event log is kept.
     */
    size_t count(TeleKind kind) const
    {
        return counts[static_cast<size_t>(kind)];
    }
    /** Layers in flight when their node failed (never completed). */
    size_t abandonedLayers() const { return numAbandoned; }

  private:
    struct Probe
    {
        std::string name;
        std::unique_ptr<LatencyEstimator> est;
        // Remaining-latency residuals at layer boundaries.
        size_t n = 0;
        double sum = 0.0;
        double sum2 = 0.0;
        // Isolated-latency residuals at dispatch.
        size_t isoN = 0;
        double isoSum = 0.0;
        double isoSum2 = 0.0;
    };

    TelemetryConfig cfg;
    std::vector<TelemetryEvent> log;
    std::vector<NodeTelemetry> perNode;
    std::vector<Probe> probes;
    double endTime = 0.0;

    std::array<size_t, kNumTeleKinds> counts{};
    size_t numAbandoned = 0;
    /** Ring rotation point of `log` when the cap is active. */
    size_t ringHead = 0;
    size_t numDroppedEvents = 0;

    NodeTelemetry& nodeRef(int node);
    void record(const TelemetryEvent& ev);
    void sample(int node, double now);
};

/**
 * Write the per-node time series as CSV
 * (time,node,queue_depth,running), one row per change-driven sample
 * in deterministic (node, time, sample-order) order. Requires
 * `recordSeries`; fatal() on I/O errors.
 */
void writeTimeSeriesCsv(const Telemetry& telemetry,
                        const std::string& path);

} // namespace dysta

#endif // DYSTA_OBS_TELEMETRY_HH
