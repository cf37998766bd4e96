/**
 * @file
 * Ablation bench: sweep Dysta's hyperparameters (eta, beta, predictor
 * strategy) on both workloads. This is the design-choice ablation
 * DESIGN.md calls out; it also documents how the defaults were
 * selected. SJF and Planaria rows anchor the trade-off space.
 *
 * Hand-configured Dysta cells use SweepCell::makePolicy; the whole
 * (workload x config x seed) grid runs on the parallel SweepRunner
 * and the output is identical for any --jobs.
 *
 * Usage: ablation_hyperparams [--requests N] [--seeds K] [--jobs N]
 */

#include <cstdio>

#include "exp/sweep.hh"
#include "util/args.hh"
#include "util/table.hh"

using namespace dysta;

int
main(int argc, char** argv)
{
    ArgParser args("ablation_hyperparams",
                   "Dysta hyperparameter ablation: eta, beta and "
                   "predictor-strategy sweeps on both workloads.");
    args.addInt("--requests", 800, "requests per workload");
    args.addInt("--seeds", 3, "seed replicas");
    args.addJobs();
    args.parse(argc, argv);
    int requests = args.getInt("--requests");
    int seeds = args.getInt("--seeds");

    auto ctx = makeBenchContext();
    SweepRunner runner(*ctx, args.getInt("--jobs"));

    const double etas[] = {0.0, 0.02, 0.05, 0.1, 0.3, 1.0};
    const double betas[] = {0.0, 0.25, 0.5, 0.75, 1.0};
    const WorkloadKind kinds[] = {WorkloadKind::MultiAttNN,
                                  WorkloadKind::MultiCNN};

    auto dystaCell = [](const WorkloadConfig& wl, DystaConfig cfg) {
        SweepCell cell;
        cell.workload = wl;
        cell.makePolicy = [cfg](const BenchContext& c) {
            return std::make_unique<DystaScheduler>(c.lut, cfg);
        };
        return cell;
    };

    // Grid order: per workload, SJF/Planaria anchors, then the eta
    // sweep, then the beta sweep — mirrored by the printing loop.
    std::vector<SweepCell> cells;
    for (WorkloadKind kind : kinds) {
        WorkloadConfig wl;
        wl.kind = kind;
        wl.arrivalRate = kind == WorkloadKind::MultiAttNN ? 30.0 : 3.0;
        wl.numRequests = requests;
        wl.seed = 42;

        for (const char* anchor : {"SJF", "Planaria"}) {
            SweepCell cell;
            cell.workload = wl;
            cell.scheduler = anchor;
            for (const SweepCell& c : seedReplicas(cell, seeds))
                cells.push_back(c);
        }
        for (double eta : etas) {
            DystaConfig cfg;
            cfg.eta = eta;
            for (const SweepCell& c :
                 seedReplicas(dystaCell(wl, cfg), seeds))
                cells.push_back(c);
        }
        for (double beta : betas) {
            DystaConfig cfg = dystaWithoutSparseConfig();
            cfg.beta = beta;
            for (const SweepCell& c :
                 seedReplicas(dystaCell(wl, cfg), seeds))
                cells.push_back(c);
        }
    }
    std::vector<Metrics> avg =
        averageGroups(runner.run(cells), seeds);

    size_t g = 0;
    for (WorkloadKind kind : kinds) {
        AsciiTable table("Dysta eta sweep, " + toString(kind));
        table.setHeader({"config", "ANTT", "violation [%]"});

        for (const char* anchor : {"SJF", "Planaria"}) {
            const Metrics& m = avg[g++];
            table.addRow({anchor, AsciiTable::num(m.antt, 3),
                          AsciiTable::num(m.violationRate * 100, 2)});
        }
        for (double eta : etas) {
            const Metrics& m = avg[g++];
            table.addRow({"Dysta eta=" + AsciiTable::num(eta, 2),
                          AsciiTable::num(m.antt, 3),
                          AsciiTable::num(m.violationRate * 100, 2)});
        }
        table.print();

        AsciiTable btable("Dysta-w/o-sparse beta sweep (static level), " +
                          toString(kind));
        btable.setHeader({"config", "ANTT", "violation [%]"});
        for (double beta : betas) {
            const Metrics& m = avg[g++];
            btable.addRow({"beta=" + AsciiTable::num(beta, 2),
                           AsciiTable::num(m.antt, 3),
                           AsciiTable::num(m.violationRate * 100, 2)});
        }
        btable.print();
    }
    return 0;
}
