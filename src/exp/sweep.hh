/**
 * @file
 * Parallel sweep engine for the experiment grids.
 *
 * Every figure/table reproduction is a grid of independent simulation
 * cells — (workload config x scheduler/dispatcher x seed). A
 * SweepRunner executes a vector of SweepCells across N worker
 * threads (`--jobs`), writing each cell's result into its pre-sized
 * slot, so the output is identical to a serial run regardless of
 * completion order. Cells share only the const BenchContext (trace
 * pools, LUT, model descriptors); all mutable state — the workload
 * RNG, the requests, the policy and its estimator, the dispatcher —
 * is constructed per cell.
 */

#ifndef DYSTA_EXP_SWEEP_HH
#define DYSTA_EXP_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "exp/experiments.hh"

namespace dysta {

/** One grid point of an experiment sweep. */
struct SweepCell
{
    /** Workload to generate (its seed identifies the replica). */
    WorkloadConfig workload;
    /** Node policy name (makeSchedulerByName). */
    std::string scheduler = "Dysta";
    /** Non-preemptible block granularity (EngineConfig). */
    size_t layerBlockSize = 1;
    /**
     * Optional policy override for cells that need a hand-built
     * scheduler (hyperparameter ablations). Must be thread-safe to
     * invoke concurrently (pure construction from const inputs).
     */
    std::function<std::unique_ptr<Scheduler>(const BenchContext&)>
        makePolicy;
    /** Serve on a simulated cluster instead of one accelerator. */
    bool clusterMode = false;
    /** Cluster topology/policies (used when clusterMode). */
    ClusterRunConfig cluster;
    /**
     * Estimator accuracy probe specs (PolicyRegistry, e.g. "lut",
     * "dysta"). Non-empty builds a private counters-only Telemetry
     * for the cell and surfaces per-probe prediction RMSE/bias in
     * the cell's Metrics::estimators. Ignored when `telemetry` is
     * set.
     */
    std::vector<std::string> probes;
    /**
     * Explicit caller-owned telemetry sink (full event recording for
     * trace exports). The caller registers any probes itself and
     * must not share one sink between concurrently-running cells.
     */
    Telemetry* telemetry = nullptr;
    /**
     * Pull requests lazily from a WorkloadArrivalSource instead of
     * materializing the workload vector (bit-identical schedule,
     * memory bounded by the in-flight set). Applies to both single
     * and cluster cells.
     */
    bool streaming = false;
    /**
     * Unread by runSweepCell; the benchmark harness copies it into
     * SimConfig::calendar. Deleted together with that copy in the
     * next benchmark-touching change.
     */
    CalendarKind calendar{};
    /** Metrics accumulation, streaming or not (see SimConfig). */
    MetricsKind metricsKind = MetricsKind::Exact;
};

/**
 * One cell's outcome: the simulation core's result (metrics,
 * decision/preemption/event counts, per-node completions).
 */
using SweepCellResult = SimResult;

/**
 * Run one cell, self-contained. This is the one place a cell's spec
 * strings become runtime objects: it resolves the cell into one
 * SimConfig, one dispatcher and one PolicyFactory, generates the
 * workload (materialized or streaming) and makes one runSimulation
 * call. Thread-safe for concurrent calls sharing one const
 * BenchContext.
 */
SweepCellResult runSweepCell(const BenchContext& ctx,
                             const SweepCell& cell);

/** `num_seeds` copies of `cell` with seeds seed, seed+1, ... */
std::vector<SweepCell> seedReplicas(const SweepCell& cell,
                                    int num_seeds);

/** Field-wise mean of run metrics (the paper's seed averaging). */
Metrics averageMetrics(const std::vector<Metrics>& runs);

/**
 * Average contiguous groups of `group_size` cell results — the
 * companion of building a grid via seedReplicas.
 */
std::vector<Metrics>
averageGroups(const std::vector<SweepCellResult>& results,
              int group_size);

/** Thread-pooled executor for a vector of sweep cells. */
class SweepRunner
{
  public:
    /**
     * @param jobs worker threads; <= 0 selects the hardware
     *             concurrency, 1 runs serially on the caller.
     */
    explicit SweepRunner(const BenchContext& ctx, int jobs = 0);

    int jobs() const { return numJobs; }

    /**
     * Execute all cells; results[i] is cells[i]'s outcome, in input
     * order, bit-identical for any jobs count. When `cell_seconds`
     * is non-null it is resized to the cell count and filled with
     * each cell's wall-clock duration (timing data only — never part
     * of the simulated results).
     */
    std::vector<SweepCellResult>
    run(const std::vector<SweepCell>& cells,
        std::vector<double>* cell_seconds = nullptr) const;

  private:
    const BenchContext* ctx;
    int numJobs;
};

} // namespace dysta

#endif // DYSTA_EXP_SWEEP_HH
