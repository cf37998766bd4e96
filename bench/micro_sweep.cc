/**
 * @file
 * Microbenchmark of the parallel sweep engine: cells/sec of the
 * Fig. 15 arrival-sweep grid (the built-in "fig15" scenario's
 * cells) executed serially (--jobs 1) vs on the thread pool.
 * Verifies on the way that the parallel run's
 * metrics are field-wise identical to the serial run's, and emits a
 * machine-readable BENCH_sweep.json for the perf trajectory.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/scenario.hh"
#include "util/args.hh"
#include "util/json.hh"
#include "util/table.hh"

using namespace dysta;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("micro_sweep",
                   "Sweep-engine microbenchmark: serial vs parallel "
                   "cells/sec on the Fig. 15 grid and a jobs=1 vs "
                   "jobs=N determinism check.");
    args.addInt("--requests", 200, "requests per workload");
    args.addInt("--seeds", 2, "seed replicas per grid point");
    args.addJobs();
    args.addString("--out", "BENCH_sweep.json", "report path");
    args.parse(argc, argv);

    int requests = args.getInt("--requests");
    int seeds = args.getInt("--seeds");
    int jobs = args.getInt("--jobs");
    std::string out_path = args.getString("--out");

    std::printf("Building BenchContext (Phase-1 profiling)...\n");
    auto ctx = makeBenchContext();

    // Sweep execution: the Fig. 15 grid, serial vs thread-pooled.
    ScenarioSpec grid = builtinScenario("fig15");
    grid.requests = requests;
    grid.seeds = seeds;
    std::vector<SweepCell> cells = scenarioCells(grid);
    std::printf("Running %zu cells serially...\n", cells.size());
    SweepRunner serial(*ctx, 1);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<SweepCellResult> serial_results = serial.run(cells);
    double serial_sec = secondsSince(t0);

    std::printf("Running %zu cells on %d threads...\n", cells.size(),
                jobs);
    SweepRunner parallel(*ctx, jobs);
    t0 = std::chrono::steady_clock::now();
    std::vector<SweepCellResult> parallel_results =
        parallel.run(cells);
    double parallel_sec = secondsSince(t0);

    bool deterministic = serial_results.size() ==
                         parallel_results.size();
    for (size_t i = 0; deterministic && i < serial_results.size();
         ++i) {
        const SweepCellResult& a = serial_results[i];
        const SweepCellResult& b = parallel_results[i];
        std::vector<std::string> drift =
            metricsDifferences(a.metrics, b.metrics);
        if (a.decisions != b.decisions || a.preemptions != b.preemptions)
            drift.push_back("decisions/preemptions");
        for (const std::string& path : drift)
            std::printf("micro_sweep: cell %zu differs in %s\n", i,
                        path.c_str());
        deterministic = drift.empty();
    }

    double n = static_cast<double>(cells.size());
    double serial_rate = n / serial_sec;
    double parallel_rate = n / parallel_sec;

    AsciiTable t("Sweep engine microbenchmark (" +
                 std::to_string(cells.size()) + " Fig. 15 cells, " +
                 std::to_string(requests) + " requests x " +
                 std::to_string(seeds) + " seeds)");
    t.setHeader({"measure", "serial", "parallel", "ratio"});
    t.addRow({"cells/sec", AsciiTable::num(serial_rate, 1),
              AsciiTable::num(parallel_rate, 1),
              AsciiTable::num(parallel_rate / serial_rate, 2) + "x"});
    t.addRow({"metrics jobs=1 vs jobs=N", "-", "-",
              deterministic ? "identical" : "MISMATCH"});
    t.print();

    JsonWriter json;
    json.beginObject();
    json.field("cells", static_cast<uint64_t>(cells.size()));
    json.field("requests", requests);
    json.field("seeds", seeds);
    json.field("jobs", jobs);
    json.field("serial_sec", serial_sec);
    json.field("parallel_sec", parallel_sec);
    json.field("serial_cells_per_sec", serial_rate);
    json.field("parallel_cells_per_sec", parallel_rate);
    json.field("parallel_speedup", parallel_rate / serial_rate);
    json.field("deterministic", deterministic);
    json.endObject();
    if (!json.writeFile(out_path)) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::printf("Wrote %s\n", out_path.c_str());

    return deterministic ? 0 : 1;
}
