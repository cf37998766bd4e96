/**
 * @file
 * Ablation bench: scheduling granularity. Sec. 4.2.2 assumes
 * execution "in a per-layer or per-layer-block manner"; this sweep
 * quantifies what coarser preemption points cost. Larger blocks mean
 * fewer scheduler invocations (lower overhead pressure) but delayed
 * preemption: short urgent requests wait for the running block to
 * drain.
 *
 * The (workload x block size x seed) grid runs as independent cells
 * on the parallel SweepRunner; output is identical for any --jobs.
 *
 * Usage: ablation_granularity [--requests N] [--seeds K] [--jobs N]
 */

#include <cstdio>

#include "exp/sweep.hh"
#include "util/args.hh"
#include "util/table.hh"

using namespace dysta;

int
main(int argc, char** argv)
{
    ArgParser args("ablation_granularity",
                   "Scheduling-granularity ablation: layer-block "
                   "size vs preemptions and metrics.");
    args.addInt("--requests", 600, "requests per workload");
    args.addInt("--seeds", 3, "seed replicas");
    args.addJobs();
    args.parse(argc, argv);
    int requests = args.getInt("--requests");
    int seeds = args.getInt("--seeds");

    auto ctx = makeBenchContext();
    SweepRunner runner(*ctx, args.getInt("--jobs"));

    const size_t blocks[] = {1, 2, 4, 8, 16, 64};
    const WorkloadKind kinds[] = {WorkloadKind::MultiAttNN,
                                  WorkloadKind::MultiCNN};

    std::vector<SweepCell> cells;
    for (WorkloadKind kind : kinds) {
        for (size_t block : blocks) {
            SweepCell cell;
            cell.workload.kind = kind;
            cell.workload.arrivalRate =
                kind == WorkloadKind::MultiAttNN ? 30.0 : 3.0;
            cell.workload.sloMultiplier = 10.0;
            cell.workload.numRequests = requests;
            cell.workload.seed = 42;
            cell.scheduler = "Dysta";
            cell.layerBlockSize = block;
            for (const SweepCell& c : seedReplicas(cell, seeds))
                cells.push_back(c);
        }
    }
    std::vector<SweepCellResult> results = runner.run(cells);

    size_t g = 0;
    for (WorkloadKind kind : kinds) {
        AsciiTable t("Scheduling granularity ablation (Dysta), " +
                     toString(kind));
        t.setHeader({"layers/block", "ANTT", "violation [%]",
                     "decisions", "preemptions"});
        for (size_t block : blocks) {
            double antt = 0.0;
            double viol = 0.0;
            size_t decisions = 0;
            size_t preemptions = 0;
            for (int s = 0; s < seeds; ++s) {
                const SweepCellResult& r = results[g++];
                antt += r.metrics.antt;
                viol += r.metrics.violationRate;
                decisions += r.decisions;
                preemptions += r.preemptions;
            }
            t.addRow({std::to_string(block),
                      AsciiTable::num(antt / seeds, 2),
                      AsciiTable::num(viol / seeds * 100.0, 1),
                      std::to_string(decisions / seeds),
                      std::to_string(preemptions / seeds)});
        }
        t.print();
    }
    std::printf("Read: per-layer scheduling buys its ANTT/violation "
                "edge with ~tens of thousands of (hardware-cheap) "
                "decisions; block sizes past ~8 layers visibly delay "
                "preemption.\n");
    return 0;
}
