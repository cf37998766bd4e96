/**
 * @file
 * Mobile personal-assistant scenario (Table 3): a phone NPU serves
 * machine translation (BART, GPT-2) and question answering (BERT)
 * concurrently on a Sanger-class sparse attention accelerator.
 *
 * Demonstrates the API *below* the scenario layer: Phase-1 profiling
 * into a TraceRegistry, policies constructed from registry spec
 * strings (including a parameterized "dysta:predictor=ema" variant),
 * workload generation, and per-model turnaround percentiles — the
 * user-visible responsiveness of each app, which the aggregated
 * scenario rows do not break out.
 *
 * Usage: mobile_assistant [--requests N] [--rate R]
 */

#include <cstdio>
#include <map>
#include <vector>

#include "api/registry.hh"
#include "exp/experiments.hh"
#include "util/args.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace dysta;

int
main(int argc, char** argv)
{
    ArgParser args("mobile_assistant",
                   "Per-app responsiveness of a phone NPU serving "
                   "translation and Q&A concurrently.");
    args.addInt("--requests", 600, "requests in the workload");
    args.addDouble("--rate", 30.0, "arrival rate [req/s]");
    args.parse(argc, argv);

    int requests = args.getInt("--requests");
    double rate = args.getDouble("--rate");

    std::printf("Profiling assistant models on the Sanger model...\n");
    BenchSetup setup;
    setup.includeCnn = false;
    auto ctx = makeBenchContext(setup);

    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = rate;
    wl.sloMultiplier = 10.0;
    wl.numRequests = requests;
    wl.seed = 7;

    // Policy specs, not hard-wired constructors: the third entry
    // shows registry parameters selecting the EMA predictor variant.
    for (const char* policy :
         {"SJF", "Dysta", "dysta:predictor=ema"}) {
        auto sched = PolicyRegistry::global().makeScheduler(
            policy, *ctx, wl.kind);
        std::vector<Request> reqs =
            generateWorkload(wl, ctx->registry);
        SchedulerEngine engine;
        SimResult result = engine.run(reqs, *sched);

        // Per-application responsiveness.
        std::map<std::string, std::vector<double>> turnaround;
        std::map<std::string, int> violations;
        std::map<std::string, int> count;
        for (const auto& req : reqs) {
            turnaround[req.modelName].push_back(
                (req.finishTime - req.arrival) * 1e3);
            violations[req.modelName] += req.violated();
            ++count[req.modelName];
        }

        AsciiTable t(std::string("Personal assistant under ") +
                     policy + " @ " + AsciiTable::num(rate, 0) +
                     " req/s");
        t.setHeader({"app (model)", "median [ms]", "p99 [ms]",
                     "violations [%]"});
        for (auto& [model, values] : turnaround) {
            std::string app = model == "bert"
                ? "Q&A (bert)"
                : "translation (" + model + ")";
            t.addRow({app, AsciiTable::num(percentile(values, 50), 1),
                      AsciiTable::num(percentile(values, 99), 1),
                      AsciiTable::num(100.0 * violations[model] /
                                          count[model], 1)});
        }
        t.addRow({"-- overall ANTT",
                  AsciiTable::num(result.metrics.antt, 2), "",
                  AsciiTable::num(result.metrics.violationRate * 100,
                                  1)});
        t.print();
    }
    std::printf("Dysta keeps tail latency and violations down by "
                "tracking each prompt's attention sparsity online.\n");
    return 0;
}
