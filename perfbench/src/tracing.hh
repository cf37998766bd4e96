/**
 * @file
 * Host-time attribution of a simulation run to the simulator's
 * modules, measured from outside the program.
 *
 * A traced cell runs `runSimulation` directly, with a timing
 * decorator around every module interface the core calls into:
 *
 *   - the `ArrivalSource` (workload/),
 *   - the front-end `Dispatcher` (serve/),
 *   - each node's `Scheduler` (sched/), plus the `LatencyEstimator`
 *     view it exposes to batch composition,
 *   - the admission `LatencyEstimator` (core/) and the telemetry
 *     probe estimators (obs/),
 *   - the `FailureProcess` (chaos/).
 *
 * Every decorated call is a span. A span's self time is its duration
 * minus the spans nested inside it, minus the calibrated cost of the
 * clock reads, so no nanosecond is attributed twice. Whatever part of
 * the cell's wall time no span covers is the sim/ core's own time:
 * calendar, node step, arena, metrics and telemetry dispatch.
 *
 * The decorators forward every call unchanged, so a traced cell must
 * reproduce the untraced `runSweepCell` result bit for bit; every
 * traced run checks that.
 */

#ifndef PERFBENCH_TRACING_HH
#define PERFBENCH_TRACING_HH

#include <array>
#include <cstdint>
#include <string>

#include "exp/sweep.hh"

namespace perfbench {

/** Calls of one kind and the self time they took, in ns. */
struct CallStat
{
    uint64_t calls = 0;
    double ns = 0.0;

    void
    merge(const CallStat& other)
    {
        calls += other.calls;
        ns += other.ns;
    }
};

/**
 * Histogram of per-call self times: 8 linear buckets per doubling
 * (at most 12.5% wide) from 1 ns up.
 */
class NsHistogram
{
  public:
    void add(double ns);
    void merge(const NsHistogram& other);
    /** Centre of the bucket holding quantile q in [0, 1]; 0 if empty. */
    double quantile(double q) const;

  private:
    static constexpr size_t kBuckets = 8 * 40;
    std::array<uint64_t, kBuckets> counts{};
    uint64_t total = 0;
};

/** Everything one traced cell (or a merged grid) accumulates. */
struct CellTrace
{
    /** Policy the cell's nodes run, for the per-policy pick split. */
    std::string policy;

    CallStat workloadNext;
    CallStat workloadRetire;
    /** Workload materialization (or streaming source set-up). */
    CallStat workloadGenerate;
    CallStat serveSelect;
    /** Dispatcher completion/shed/cancel callbacks. */
    CallStat serveHook;
    CallStat serveRebalance;
    CallStat admission;
    CallStat schedPick;
    /** Scheduler arrival/layer/complete/dequeue callbacks. */
    CallStat schedHook;
    /** Estimator queries batch composition makes via the scheduler. */
    CallStat batchEstimate;
    CallStat probe;
    CallStat chaos;

    NsHistogram pickHistogram;
    /** Ready-set sizes seen by pickNext. */
    uint64_t readySum = 0;
    uint64_t readyMax = 0;

    /** Spans recorded. */
    uint64_t spans = 0;
    /** Duration of the top-level spans plus their outer clock reads. */
    double topInclusiveNs = 0.0;
    /** Wall time of the traced cells. */
    double wallNs = 0.0;

    /** Wall time no span covers: the sim/ core's self time. */
    double simSelfNs() const { return wallNs - topInclusiveNs; }
    /** Wall time the clock reads of all spans cost. */
    double clockOverheadNs() const;

    void merge(const CellTrace& other);
};

/**
 * Measure the cost of one steady_clock read (the mean interval
 * between two back-to-back reads) and use it for every later span.
 * Call once, before any traced cell runs.
 */
void calibrateClock();

/** The calibrated cost of one clock read, ns. */
double clockReadNs();

/**
 * Run one sweep cell the way `runSweepCell` does, but through
 * `runSimulation` directly with every module decorated, accumulating
 * into `trace`. Thread-safe for concurrent calls on distinct traces.
 */
dysta::SweepCellResult runTracedCell(const dysta::BenchContext& ctx,
                                     const dysta::SweepCell& cell,
                                     CellTrace& trace);

} // namespace perfbench

#endif // PERFBENCH_TRACING_HH
