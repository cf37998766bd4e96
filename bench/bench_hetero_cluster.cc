/**
 * @file
 * Heterogeneous-cluster bench: fleet mix x dispatcher, plus
 * migration and failure-injection scenarios, on the multi-AttNN
 * scenario under bursty (MMPP) arrivals at a saturating offered
 * load.
 *
 * Runs the built-in "hetero-cluster" grid (homogeneous vs mixed
 * fleets across capability-blind and capability-aware front-ends
 * plus work-stealing migration) and the "hetero-failover" scenario
 * at 1 job and at --jobs to verify the failure path is
 * deterministic. Emits BENCH_hetero.json with the headline
 * round-robin vs work-stealing comparison and the determinism
 * check; exits non-zero when the two failover runs diverge.
 */

#include <cstdio>

#include "api/report.hh"
#include "api/scenario.hh"
#include "util/args.hh"
#include "util/logging.hh"

using namespace dysta;

namespace {

const Metrics&
rowMetrics(const ScenarioResult& result, const std::string& fleet,
           const std::string& dispatcher)
{
    for (const ScenarioRow& row : result.rows) {
        if (row.fleet == fleet && row.dispatcher == dispatcher)
            return row.metrics;
    }
    fatal("bench_hetero_cluster: no result row for fleet '" + fleet +
          "' dispatcher '" + dispatcher + "'");
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("bench_hetero_cluster",
                   "Heterogeneous fleets, work-stealing migration and "
                   "failure injection (the built-in 'hetero-cluster' "
                   "and 'hetero-failover' scenarios).");
    args.addInt("--requests", 400, "requests per workload");
    args.addDouble("--rate", 100.0, "MMPP base arrival rate [req/s]");
    args.addInt("--seed", 42, "workload seed");
    args.addString("--sched", "Dysta", "per-node scheduler spec");
    args.addString("--fleet", "sanger:2,eyeriss-xl:2",
                   "mixed fleet spec");
    args.addString("--events", "fail@1.0:0,recover@3.0:0",
                   "failure-scenario availability timeline");
    args.addJobs();
    args.addString("--out", "BENCH_hetero.json", "report path");
    args.parse(argc, argv);

    const std::string mixed = args.getString("--fleet");

    ScenarioSpec grid = builtinScenario("hetero-cluster");
    grid.requests = args.getInt("--requests");
    grid.seed = static_cast<uint64_t>(args.getInt("--seed"));
    grid.workloads = {
        {WorkloadKind::MultiAttNN, args.getDouble("--rate")}};
    grid.schedulers = {args.getString("--sched")};
    grid.fleets = {"sanger:4", mixed};

    ScenarioSpec failover = builtinScenario("hetero-failover");
    failover.requests = grid.requests;
    failover.seed = grid.seed;
    failover.workloads = grid.workloads;
    failover.schedulers = grid.schedulers;
    failover.fleets = {mixed};
    failover.events = args.getString("--events");

    // One Phase-1 profile serves all three runs (same model set).
    std::printf("Profiling AttNN models on Sanger...\n");
    auto ctx = makeBenchContext(scenarioSetup(grid));

    ScenarioRunOptions options;
    options.jobs = args.getInt("--jobs");
    options.ctx = ctx.get();

    ScenarioResult grid_result = runScenario(grid, options);
    // The jobs=1 vs --jobs gate: the thread-pooled failover run must
    // replay the serial one bit-for-bit.
    ScenarioRunOptions serial = options;
    serial.jobs = 1;
    ScenarioResult fail_a = runScenario(failover, serial);
    ScenarioResult fail_b = runScenario(failover, options);

    printScenarioTable(grid_result);
    printScenarioTable(fail_a);

    const Metrics& rr = rowMetrics(grid_result, mixed, "round-robin");
    const Metrics& ws =
        rowMetrics(grid_result, mixed, "work-stealing");
    const Metrics& fail_ws = rowMetrics(fail_a, mixed,
                                        "work-stealing");

    bool deterministic = fail_a.rows.size() == fail_b.rows.size();
    for (size_t i = 0; deterministic && i < fail_a.rows.size(); ++i) {
        for (const std::string& path :
             metricsDifferences(fail_a.rows[i].metrics,
                                fail_b.rows[i].metrics)) {
            std::printf("bench_hetero_cluster: failover 1-job vs "
                        "%d-job differ in row %zu: %s\n",
                        options.jobs, i, path.c_str());
            deterministic = false;
        }
    }
    bool stealing_wins = ws.p99Latency < rr.p99Latency &&
                         ws.violationRate <= rr.violationRate;

    std::printf("Read: on the mixed fleet, work-stealing cuts p99 "
                "latency %.2f -> %.2f ms and the violation rate "
                "%.1f%% -> %.1f%% vs round-robin (%s); the "
                "failure-injection runs are %s at 1 and %d jobs.\n",
                rr.p99Latency * 1e3, ws.p99Latency * 1e3,
                rr.violationRate * 100.0, ws.violationRate * 100.0,
                stealing_wins ? "improves" : "REGRESSION",
                deterministic ? "bit-identical" : "NOT reproducible",
                options.jobs);

    Reporter report("bench_hetero_cluster");
    report.meta("jobs", options.jobs);
    report.scalar("mixed_fleet", mixed);
    report.scalar("rr_p99_latency_ms", rr.p99Latency * 1e3);
    report.scalar("ws_p99_latency_ms", ws.p99Latency * 1e3);
    report.scalar("rr_violation_rate", rr.violationRate);
    report.scalar("ws_violation_rate", ws.violationRate);
    report.scalar("rr_slo_miss_rate", rr.sloMissRate);
    report.scalar("ws_slo_miss_rate", ws.sloMissRate);
    report.scalar("stealing_improves", stealing_wins);
    report.scalar("failure_scenario_completed",
                  static_cast<int64_t>(fail_ws.completed));
    report.scalar("failure_scenario_shed",
                  static_cast<int64_t>(fail_ws.shed));
    report.scalar("deterministic", deterministic);
    report.add(grid_result);
    report.add(fail_a);
    report.writeJson(args.getString("--out"));

    return deterministic ? 0 : 1;
}
