/**
 * @file
 * Unit tests for the experiment harness: context construction,
 * scheduler factory, seeded averaging, and CLI flag parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "exp/experiments.hh"

using namespace dysta;

namespace {

BenchContext&
smallCtx()
{
    static std::unique_ptr<BenchContext> instance = [] {
        BenchSetup setup;
        setup.samplesPerModel = 25;
        return makeBenchContext(setup);
    }();
    return *instance;
}

} // namespace

TEST(Harness, ContextSubsets)
{
    BenchSetup attn_only;
    attn_only.samplesPerModel = 5;
    attn_only.includeCnn = false;
    auto a = makeBenchContext(attn_only);
    EXPECT_EQ(a->registry.size(), 3u);
    EXPECT_EQ(a->models.size(), 3u);

    BenchSetup cnn_only;
    cnn_only.samplesPerModel = 5;
    cnn_only.includeAttnn = false;
    auto c = makeBenchContext(cnn_only);
    EXPECT_EQ(c->registry.size(), 4u * 3);
    EXPECT_EQ(c->models.size(), 4u);
}

TEST(Harness, SchedulerFactoryCoversAllNames)
{
    for (const std::string& name : allSchedulers()) {
        auto policy = makeSchedulerByName(name, smallCtx(),
                                          WorkloadKind::MultiAttNN);
        ASSERT_NE(policy, nullptr) << name;
        // The factory may decorate names (ablations); the base must
        // still identify itself sensibly.
        EXPECT_FALSE(policy->name().empty());
    }
}

TEST(Harness, Table5ListIsPaperOrder)
{
    auto list = table5Schedulers();
    ASSERT_EQ(list.size(), 6u);
    EXPECT_EQ(list.front(), "FCFS");
    EXPECT_EQ(list.back(), "Dysta");
}

TEST(Harness, TunedEtaAppliedPerScenario)
{
    auto attn = makeSchedulerByName("Dysta", smallCtx(),
                                    WorkloadKind::MultiAttNN);
    auto cnn = makeSchedulerByName("Dysta", smallCtx(),
                                   WorkloadKind::MultiCNN);
    auto* attn_dysta = dynamic_cast<DystaScheduler*>(attn.get());
    auto* cnn_dysta = dynamic_cast<DystaScheduler*>(cnn.get());
    ASSERT_NE(attn_dysta, nullptr);
    ASSERT_NE(cnn_dysta, nullptr);
    EXPECT_LT(attn_dysta->config().eta, cnn_dysta->config().eta);
}

TEST(Harness, RunAveragedIsMeanOfSeeds)
{
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 25.0;
    wl.numRequests = 120;
    wl.seed = 77;

    // Average of two single-seed runs must equal the two-seed run.
    auto policy_a = makeSchedulerByName("SJF", smallCtx(), wl.kind);
    SimResult r1 = runOne(smallCtx(), wl, *policy_a);
    WorkloadConfig wl2 = wl;
    wl2.seed = 78;
    SimResult r2 = runOne(smallCtx(), wl2, *policy_a);

    Metrics avg = runAveraged(smallCtx(), wl, "SJF", 2);
    EXPECT_NEAR(avg.antt, (r1.metrics.antt + r2.metrics.antt) / 2.0,
                1e-9);
    EXPECT_NEAR(avg.violationRate,
                (r1.metrics.violationRate +
                 r2.metrics.violationRate) / 2.0,
                1e-9);
}

TEST(Harness, SchedulerNamesComeFromTheRegistry)
{
    // The legacy by-name constructors are thin shims over the
    // PolicyRegistry; the name lists must agree.
    std::vector<std::string> names = allSchedulers();
    EXPECT_NE(std::find(names.begin(), names.end(), "Dysta"),
              names.end());
    for (const std::string& name : table5Schedulers())
        EXPECT_NE(std::find(names.begin(), names.end(), name),
                  names.end());
    std::vector<std::string> dispatchers = allDispatchers();
    EXPECT_NE(std::find(dispatchers.begin(), dispatchers.end(),
                        "work-stealing"),
              dispatchers.end());
}

TEST(Harness, DecisionOverheadDegradesMetricsMonotonically)
{
    // Modeling a slow (software-only) scheduler: chargeable decision
    // time can only hurt — the motivation for the hardware level.
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 30.0;
    wl.numRequests = 200;
    wl.seed = 5;

    auto run_with_overhead = [&](double overhead) {
        auto policy = makeSchedulerByName("Dysta", smallCtx(), wl.kind);
        std::vector<Request> reqs =
            generateWorkload(wl, smallCtx().registry);
        EngineConfig cfg;
        cfg.decisionOverheadSec = overhead;
        return runSingleNode(singleNodeSimConfig(cfg), reqs, *policy).metrics;
    };

    Metrics free = run_with_overhead(0.0);
    Metrics slow = run_with_overhead(2e-4); // 200 us per decision
    EXPECT_GE(slow.antt, free.antt);
    EXPECT_GE(slow.violationRate, free.violationRate - 1e-9);
}
