/**
 * @file
 * Single-accelerator runs (Phase 2, Fig. 7 right half).
 *
 * Replays a set of requests (each bound to a Phase-1 trace) against a
 * scheduling policy on a single time-shared accelerator. Execution is
 * non-preemptible within a layer; the scheduler is re-invoked at every
 * layer boundary, so preemption happens exactly at the granularity the
 * paper assumes.
 *
 * The run is `runSimulation` (src/sim/core.hh) with one node and a
 * `SingleNodeDispatcher`, configured through `singleNodeSimConfig` —
 * the same function `runSweepCell` uses for its single-accelerator
 * cells — so these runs and the scenario cells cannot drift apart.
 * A caller that wants the per-layer schedule (a Gantt chart) sets
 * `SimConfig::telemetry` on the config before the run.
 */

#ifndef DYSTA_SCHED_ENGINE_HH
#define DYSTA_SCHED_ENGINE_HH

#include <vector>

#include "sched/request.hh"
#include "sched/scheduler.hh"
#include "sim/core.hh"

namespace dysta {

/** Knobs of the single-accelerator node. */
struct EngineConfig
{
    /**
     * Time charged per scheduling decision (the hardware scheduler
     * makes this negligible; set > 0 to model a slow software
     * scheduler).
     */
    double decisionOverheadSec = 0.0;
    /**
     * Unread, like SimConfig::recordEvents: kept only because the
     * benchmark harness (perfbench/src/tracing.cc) still copies it
     * there; deleted with it in the next benchmark-touching change.
     */
    EventRecording recordEvents{};
    /**
     * Layers executed per non-preemptible block (Sec. 4.2.2 allows
     * "per-layer or per-layer-block" granularity). The monitor still
     * reports every layer; the scheduler is only re-invoked for a
     * dispatch decision at block boundaries.
     */
    size_t layerBlockSize = 1;
};

/** The one-node SimConfig an EngineConfig describes. */
SimConfig singleNodeSimConfig(const EngineConfig& cfg = {});

/**
 * Execute all requests to completion under `policy` on the one node
 * of `cfg` (a `singleNodeSimConfig`). Resets `policy` first.
 * Requests are mutated in place (progress, finish times).
 * @pre every request has a trace with at least one layer.
 */
SimResult runSingleNode(const SimConfig& cfg,
                        std::vector<Request>& requests,
                        Scheduler& policy);

/**
 * Streaming overload: requests are pulled lazily from `source` and
 * retired back to it on completion, keeping memory bounded by the
 * in-flight set. Bit-identical schedule to the vector overload for
 * the same workload seed.
 */
SimResult runSingleNode(const SimConfig& cfg, ArrivalSource& source,
                        Scheduler& policy);

} // namespace dysta

#endif // DYSTA_SCHED_ENGINE_HH
