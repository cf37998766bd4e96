/**
 * @file
 * AR/VR wearable scenario (Table 3): hand tracking (SSD) and gesture
 * recognition (MobileNet) share one Eyeriss-V2-class accelerator.
 *
 * Unlike the bench harness, this example builds the workload by hand
 * with the low-level API: per-task SLO multipliers (hand tracking is
 * latency-critical, gestures are tolerant), explicit request
 * construction from trace pools, and a Gantt-style dump of the first
 * scheduling decisions so the preemption behaviour is visible.
 *
 * Usage: arvr_wearable [--requests N]
 */

#include <cstdio>
#include <vector>

#include "core/dysta.hh"
#include "exp/experiments.hh"
#include "exp/gantt.hh"
#include "sched/engine.hh"
#include "sched/fcfs.hh"
#include "util/args.hh"
#include "util/rng.hh"
#include "util/table.hh"

using namespace dysta;

namespace {

std::vector<Request>
buildWorkload(const TraceRegistry& registry, int n, uint64_t seed)
{
    // Hand tracking at 2 req/s with a tight 6x SLO; gesture
    // recognition at 4 req/s with a relaxed 25x SLO. Two independent
    // Poisson streams, merged by arrival time.
    Rng rng(seed);
    std::vector<Request> reqs;
    double t_hand = rng.exponential(2.0);
    double t_gest = rng.exponential(4.0);
    for (int id = 0; id < n; ++id) {
        if (t_hand <= t_gest) {
            const TraceSet& set =
                registry.get("ssd300", SparsityPattern::ChannelWise);
            reqs.push_back(makeRequest(
                id, "ssd300", SparsityPattern::ChannelWise,
                set.sample(rng.uniformInt(0, set.size() - 1)), t_hand,
                6.0, set.avgTotalLatency()));
            t_hand += rng.exponential(2.0);
        } else {
            const TraceSet& set =
                registry.get("mobilenet", SparsityPattern::BlockNM);
            reqs.push_back(makeRequest(
                id, "mobilenet", SparsityPattern::BlockNM,
                set.sample(rng.uniformInt(0, set.size() - 1)), t_gest,
                25.0, set.avgTotalLatency()));
            t_gest += rng.exponential(4.0);
        }
    }
    return reqs;
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("arvr_wearable",
                   "Hand tracking and gesture recognition sharing "
                   "one Eyeriss-V2-class accelerator, built with the "
                   "low-level request API.");
    args.addInt("--requests", 300, "requests in the workload");
    args.parse(argc, argv);
    int requests = args.getInt("--requests");

    std::printf("Profiling wearable models on Eyeriss-V2...\n");
    BenchSetup setup;
    setup.includeAttnn = false;
    auto ctx = makeBenchContext(setup);

    AsciiTable t("AR/VR wearable: hand tracking (6x SLO) + gestures "
                 "(25x SLO)");
    t.setHeader({"scheduler", "ANTT", "hand viol [%]",
                 "gesture viol [%]"});

    for (const char* policy : {"FCFS", "Dysta"}) {
        auto sched = makeSchedulerByName(policy, *ctx,
                                         WorkloadKind::MultiCNN);
        std::vector<Request> reqs =
            buildWorkload(ctx->registry, requests, 11);
        EngineConfig ecfg;
        ecfg.recordEvents = true;
        SchedulerEngine engine(ecfg);
        SimResult result = engine.run(reqs, *sched);

        int hand_viol = 0;
        int hand_n = 0;
        int gest_viol = 0;
        int gest_n = 0;
        for (const auto& req : reqs) {
            if (req.modelName == "ssd300") {
                ++hand_n;
                hand_viol += req.violated();
            } else {
                ++gest_n;
                gest_viol += req.violated();
            }
        }
        t.addRow({policy, AsciiTable::num(result.metrics.antt, 2),
                  AsciiTable::num(100.0 * hand_viol / hand_n, 1),
                  AsciiTable::num(100.0 * gest_viol / gest_n, 1)});

        if (std::string(policy) == "Dysta") {
            // Show the first two seconds of the schedule: MobileNet
            // gestures slotting between SSD layer blocks.
            GanttConfig gcfg;
            gcfg.windowStart = 0.0;
            gcfg.windowEnd = 2.0;
            gcfg.maxRows = 10;
            std::printf("%s", renderGantt(result.events, reqs,
                                          gcfg).c_str());
        }
    }
    t.print();
    return 0;
}
