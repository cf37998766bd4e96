/**
 * @file
 * Dynamic-batching bench: batch composition policies vs unbatched
 * serving on the multi-AttNN scenario under bursty (MMPP) arrivals.
 *
 * One grid, four slices at matched formation knobs (max size, fill
 * window): unbatched, FIFO composition, size-greedy composition and
 * sparsity-aware composition. The headline is SLO goodput
 * (in-deadline completions per second): sparsity-aware composition
 * must beat FIFO at the same knobs — grouping members with similar
 * sparsity-refined per-layer latencies shrinks the straggler tax a
 * batch step pays for its occupancy. Batching must actually bite
 * (batches form, occupancy > 1), the unbatched slice must report no
 * batch stats at all, and a 1-job vs 4-job repeat of the grid must
 * be bit-identical. Emits BENCH_batching.json; exits non-zero on any
 * of those regressions.
 */

#include <cstdio>

#include "api/report.hh"
#include "api/scenario.hh"
#include "util/args.hh"
#include "util/logging.hh"

using namespace dysta;

namespace {

/** The grid row whose batcher spec contains `needle`. */
const ScenarioRow&
rowFor(const ScenarioResult& result, const std::string& needle)
{
    for (const ScenarioRow& row : result.rows) {
        if (row.batcher.find(needle) != std::string::npos)
            return row;
    }
    fatal("bench_batching: no grid row matches batcher '" + needle +
          "'");
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("bench_batching",
                   "Batch composition policies (FIFO / greedy / "
                   "sparsity-aware) vs unbatched serving at matched "
                   "formation knobs (the built-in 'batching' "
                   "scenario).");
    args.addInt("--requests", 400, "requests per workload");
    args.addDouble("--rate", 120.0, "MMPP base arrival rate [req/s]");
    args.addInt("--seed", 42, "workload seed");
    args.addInt("--seeds", 2, "seed replicas to average");
    args.addTraceCache();
    args.addString("--out", "BENCH_batching.json", "report path");
    args.parse(argc, argv);

    // The shipped scenario supplies the fleet, the scheduler and the
    // matched batcher axis; the bench only re-pins workload knobs.
    ScenarioSpec spec = builtinScenario("batching");
    spec.requests = args.getInt("--requests");
    spec.seed = static_cast<uint64_t>(args.getInt("--seed"));
    spec.seeds = args.getInt("--seeds");
    spec.workloads = {
        {WorkloadKind::MultiAttNN, args.getDouble("--rate")}};

    std::printf("Profiling AttNN models on Sanger...\n");
    auto ctx = makeBenchContext(scenarioSetup(spec),
                                args.getString("--trace-cache"));

    ScenarioRunOptions options;
    options.jobs = 1;
    options.ctx = ctx.get();
    ScenarioResult serial = runScenario(spec, options);

    // The jobs=1 vs jobs=4 gate: the parallel sweep must replay the
    // serial batch formation timelines bit-for-bit.
    ScenarioRunOptions parallel = options;
    parallel.jobs = 4;
    ScenarioResult repeat = runScenario(spec, parallel);

    printScenarioTable(serial);

    const ScenarioRow& off = rowFor(serial, "none");
    const ScenarioRow& fifo = rowFor(serial, "compose=fifo");
    const ScenarioRow& greedy = rowFor(serial, "compose=greedy");
    const ScenarioRow& sparsity = rowFor(serial, "compose=sparsity");

    bool deterministic = true;
    for (size_t i = 0; i < serial.rows.size(); ++i) {
        for (const std::string& path :
             metricsDifferences(serial.rows[i].metrics,
                                repeat.rows[i].metrics)) {
            std::printf("bench_batching: 1-job vs 4-job differ in row "
                        "%zu: %s\n",
                        i, path.c_str());
            deterministic = false;
        }
    }

    // Batching must actually bite on the batched slices, and the
    // unbatched slice must carry no batch stats at all (the zero-
    // drift contract of the subsystem).
    bool batches_bite = fifo.metrics.batching.active &&
                        fifo.metrics.batching.formed > 0.0 &&
                        fifo.metrics.batching.meanOccupancy > 1.0 &&
                        sparsity.metrics.batching.active &&
                        sparsity.metrics.batching.meanOccupancy > 1.0;
    bool off_clean = !off.metrics.batching.active;
    // The acceptance gate: sparsity-aware composition must beat FIFO
    // on SLO goodput at the same formation knobs.
    bool sparsity_wins =
        sparsity.metrics.goodput > fifo.metrics.goodput;

    std::printf(
        "Read: at size=8/delay=2ms, sparsity-aware composition "
        "lifts SLO goodput %.2f -> %.2f req/s vs FIFO (%s; greedy "
        "%.2f, unbatched %.2f req/s), trimming the straggler tax "
        "%.2fs -> %.2fs at occupancy %.2f vs %.2f; 1-job vs 4-job "
        "batching grids are %s.\n",
        fifo.metrics.goodput, sparsity.metrics.goodput,
        sparsity_wins ? "holds" : "REGRESSION",
        greedy.metrics.goodput, off.metrics.goodput,
        fifo.metrics.batching.stragglerTaxSec,
        sparsity.metrics.batching.stragglerTaxSec,
        sparsity.metrics.batching.meanOccupancy,
        fifo.metrics.batching.meanOccupancy,
        deterministic ? "bit-identical" : "NOT reproducible");

    Reporter report("bench_batching");
    report.meta("knobs", "size=8,delay=2ms");
    report.scalar("goodput_unbatched", off.metrics.goodput);
    report.scalar("goodput_fifo", fifo.metrics.goodput);
    report.scalar("goodput_greedy", greedy.metrics.goodput);
    report.scalar("goodput_sparsity", sparsity.metrics.goodput);
    report.scalar("goodput_gain",
                  fifo.metrics.goodput > 0.0
                      ? sparsity.metrics.goodput /
                                fifo.metrics.goodput -
                            1.0
                      : 0.0);
    report.scalar("batches_formed", fifo.metrics.batching.formed);
    report.scalar("occupancy_fifo",
                  fifo.metrics.batching.meanOccupancy);
    report.scalar("occupancy_sparsity",
                  sparsity.metrics.batching.meanOccupancy);
    report.scalar("straggler_tax_fifo",
                  fifo.metrics.batching.stragglerTaxSec);
    report.scalar("straggler_tax_sparsity",
                  sparsity.metrics.batching.stragglerTaxSec);
    report.scalar("sparsity_wins", sparsity_wins);
    report.scalar("batches_bite", batches_bite);
    report.scalar("off_clean", off_clean);
    report.scalar("deterministic", deterministic);
    report.add(serial);
    report.writeJson(args.getString("--out"));

    bool ok =
        deterministic && batches_bite && off_clean && sparsity_wins;
    if (!ok)
        std::printf("bench_batching: FAILED (%s%s%s%s)\n",
                    deterministic ? "" : "non-deterministic ",
                    batches_bite ? "" : "no-batches ",
                    off_clean ? "" : "off-row-tainted ",
                    sparsity_wins ? "" : "goodput-regression");
    return ok ? 0 : 1;
}
