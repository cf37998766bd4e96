/**
 * @file
 * Cluster scaling sweep: fleet size x front-end dispatcher x arrival
 * process, on the multi-AttNN scenario at a saturating offered load
 * with Dysta per node. Expected reads:
 *  - throughput scales monotonically with the node count while the
 *    offered load saturates the fleet;
 *  - backlog-aware placement beats round-robin under bursty (MMPP)
 *    and diurnal traffic, where instantaneous load imbalance is the
 *    failure mode.
 *
 * This main is the built-in "cluster-scaling" scenario plus flag
 * overrides; `sdysta scenarios/cluster-scaling.scn` runs the
 * identical grid. `--admission 1` adds SLO-aware load shedding.
 */

#include <cstdio>

#include "api/report.hh"
#include "api/scenario.hh"
#include "util/args.hh"

using namespace dysta;

int
main(int argc, char** argv)
{
    ArgParser args("bench_cluster_scaling",
                   "Fleet size x dispatcher x arrival process at "
                   "saturating load (the built-in 'cluster-scaling' "
                   "scenario).");
    args.addInt("--requests", 400, "requests per workload");
    args.addDouble("--rate", 120.0, "base arrival rate [req/s]");
    args.addInt("--seed", 42, "workload seed");
    args.addString("--sched", "Dysta", "per-node scheduler spec");
    args.addBool("--admission", false,
                 "SLO-aware admission control (sheds hopeless "
                 "requests)");
    args.addJobs();
    args.addString("--out", "BENCH_cluster_scaling.json",
                   "report path");
    args.parse(argc, argv);

    ScenarioSpec spec = builtinScenario("cluster-scaling");
    spec.requests = args.getInt("--requests");
    spec.seed = static_cast<uint64_t>(args.getInt("--seed"));
    spec.workloads = {
        {WorkloadKind::MultiAttNN, args.getDouble("--rate")}};
    spec.schedulers = {args.getString("--sched")};
    spec.admission = args.getBool("--admission");

    ScenarioRunOptions options;
    options.jobs = args.getInt("--jobs");
    ScenarioResult result = runScenario(spec, options);
    printScenarioTable(result);
    std::printf("Read: under saturating load, throughput tracks the "
                "fleet size for every dispatcher; under bursty and "
                "diurnal arrivals the backlog-aware front-end keeps "
                "ANTT and SLO violations below oblivious rotation.\n");

    Reporter report("bench_cluster_scaling");
    report.meta("jobs", result.jobs);
    report.add(result);
    report.writeJson(args.getString("--out"));
    return 0;
}
