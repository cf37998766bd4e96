/**
 * @file
 * Integration tests: the full Phase-1 + Phase-2 pipeline at reduced
 * scale, checking the paper's headline orderings and cross-scheduler
 * invariants (TEST_P property sweeps over scenarios and rates).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <memory>

#include "exp/experiments.hh"

using namespace dysta;

namespace {

BenchContext&
ctx()
{
    static std::unique_ptr<BenchContext> instance = [] {
        BenchSetup setup;
        setup.samplesPerModel = 80;
        return makeBenchContext(setup);
    }();
    return *instance;
}

WorkloadConfig
config(WorkloadKind kind, double rate, int requests = 400)
{
    WorkloadConfig wl;
    wl.kind = kind;
    wl.arrivalRate = rate;
    wl.sloMultiplier = 10.0;
    wl.numRequests = requests;
    wl.seed = 42;
    return wl;
}

} // namespace

TEST(Integration, ContextCoversBothScenarios)
{
    EXPECT_EQ(ctx().registry.size(), 4u * 3 + 3u);
    EXPECT_EQ(ctx().lut.size(), ctx().registry.size());
    EXPECT_EQ(ctx().models.size(), 7u);
}

TEST(Integration, DystaBeatsFcfsOnBothMetrics)
{
    for (auto kind :
         {WorkloadKind::MultiAttNN, WorkloadKind::MultiCNN}) {
        double rate = kind == WorkloadKind::MultiAttNN ? 30.0 : 3.0;
        Metrics fcfs = runAveraged(ctx(), config(kind, rate), "FCFS",
                                   2);
        Metrics dysta = runAveraged(ctx(), config(kind, rate),
                                    "Dysta", 2);
        EXPECT_LT(dysta.antt, fcfs.antt) << toString(kind);
        EXPECT_LT(dysta.violationRate, fcfs.violationRate)
            << toString(kind);
    }
}

TEST(Integration, DystaImprovesOnSjfViolations)
{
    // The Fig. 5 narrative: sparsity-aware remaining-time estimates
    // avoid violations that the average-based SJF incurs.
    for (auto kind :
         {WorkloadKind::MultiAttNN, WorkloadKind::MultiCNN}) {
        double rate = kind == WorkloadKind::MultiAttNN ? 30.0 : 3.0;
        Metrics sjf = runAveraged(ctx(), config(kind, rate), "SJF", 3);
        Metrics dysta = runAveraged(ctx(), config(kind, rate),
                                    "Dysta", 3);
        EXPECT_LT(dysta.violationRate, sjf.violationRate)
            << toString(kind);
    }
}

TEST(Integration, OracleIsTheAnttFloor)
{
    WorkloadConfig wl = config(WorkloadKind::MultiAttNN, 30.0);
    Metrics oracle = runAveraged(ctx(), wl, "Oracle", 3);
    for (const std::string& name : table5Schedulers()) {
        Metrics m = runAveraged(ctx(), wl, name, 3);
        EXPECT_LE(oracle.antt, m.antt * 1.02) << name;
    }
}

TEST(Integration, PlanariaTradesAnttForViolations)
{
    WorkloadConfig wl = config(WorkloadKind::MultiAttNN, 30.0);
    Metrics planaria = runAveraged(ctx(), wl, "Planaria", 3);
    Metrics sjf = runAveraged(ctx(), wl, "SJF", 3);
    EXPECT_LT(planaria.violationRate, sjf.violationRate);
    EXPECT_GT(planaria.antt, sjf.antt);
}

TEST(Integration, BreakdownOrdering)
{
    // Fig. 13: PREMA -> Dysta-w/o-sparse -> Dysta improves ANTT.
    WorkloadConfig wl = config(WorkloadKind::MultiAttNN, 30.0);
    Metrics prema = runAveraged(ctx(), wl, "PREMA", 3);
    Metrics stat = runAveraged(ctx(), wl, "Dysta-w/o-sparse", 3);
    Metrics full = runAveraged(ctx(), wl, "Dysta", 3);
    EXPECT_LT(stat.antt, prema.antt);
    EXPECT_LT(full.antt, stat.antt);
}

TEST(Integration, LooserSloMeansFewerViolations)
{
    WorkloadConfig tight = config(WorkloadKind::MultiCNN, 3.0);
    tight.sloMultiplier = 5.0;
    WorkloadConfig loose = config(WorkloadKind::MultiCNN, 3.0);
    loose.sloMultiplier = 80.0;
    Metrics m_tight = runAveraged(ctx(), tight, "Dysta", 2);
    Metrics m_loose = runAveraged(ctx(), loose, "Dysta", 2);
    EXPECT_LE(m_loose.violationRate, m_tight.violationRate);
}

TEST(Integration, HigherRateDegradesMetrics)
{
    Metrics light = runAveraged(
        ctx(), config(WorkloadKind::MultiAttNN, 15.0), "SJF", 2);
    Metrics heavy = runAveraged(
        ctx(), config(WorkloadKind::MultiAttNN, 40.0), "SJF", 2);
    EXPECT_GT(heavy.antt, light.antt);
    EXPECT_GE(heavy.violationRate, light.violationRate);
}

TEST(Integration, UnknownSchedulerIsFatal)
{
    EXPECT_EXIT(makeSchedulerByName("EDF", ctx()),
                ::testing::ExitedWithCode(1), "unknown scheduler");
}

// --- Parameterized invariants over scenarios x rates x policies ---

struct SweepPoint
{
    WorkloadKind kind;
    double rate;
    std::string scheduler;
};

class PipelineSweep : public ::testing::TestWithParam<SweepPoint>
{
};

TEST_P(PipelineSweep, MetricsWellFormed)
{
    const SweepPoint& p = GetParam();
    WorkloadConfig wl = config(p.kind, p.rate, 250);
    auto policy = makeSchedulerByName(p.scheduler, ctx(), p.kind);
    SimResult r = runOne(ctx(), wl, *policy);

    EXPECT_EQ(r.metrics.completed, 250u);
    EXPECT_GE(r.metrics.antt, 1.0);
    EXPECT_TRUE(std::isfinite(r.metrics.antt));
    EXPECT_GE(r.metrics.violationRate, 0.0);
    EXPECT_LE(r.metrics.violationRate, 1.0);
    EXPECT_GT(r.metrics.throughput, 0.0);
    EXPECT_GE(r.metrics.p99Turnaround, 1.0);
    EXPECT_GT(r.metrics.stp, 0.0);
    EXPECT_LE(r.metrics.stp, 250.0);
}

TEST_P(PipelineSweep, ThroughputIsCapacityBound)
{
    // Fig. 15: throughput does not depend on the scheduler; compare
    // against FCFS at the same operating point.
    const SweepPoint& p = GetParam();
    WorkloadConfig wl = config(p.kind, p.rate, 250);
    auto policy = makeSchedulerByName(p.scheduler, ctx(), p.kind);
    auto fcfs = makeSchedulerByName("FCFS", ctx(), p.kind);
    double thr = runOne(ctx(), wl, *policy).metrics.throughput;
    double thr_fcfs = runOne(ctx(), wl, *fcfs).metrics.throughput;
    EXPECT_NEAR(thr, thr_fcfs, 0.02 * thr_fcfs);
}

std::vector<SweepPoint>
sweepPoints()
{
    std::vector<SweepPoint> points;
    for (const char* s :
         {"FCFS", "SJF", "PREMA", "Planaria", "SDRM3", "Oracle",
          "Dysta", "Dysta-w/o-sparse", "Dysta-HW"}) {
        points.push_back({WorkloadKind::MultiAttNN, 20.0, s});
        points.push_back({WorkloadKind::MultiAttNN, 35.0, s});
        points.push_back({WorkloadKind::MultiCNN, 2.5, s});
        points.push_back({WorkloadKind::MultiCNN, 4.0, s});
    }
    return points;
}

INSTANTIATE_TEST_SUITE_P(
    ScenarioRatePolicy, PipelineSweep,
    ::testing::ValuesIn(sweepPoints()),
    [](const ::testing::TestParamInfo<SweepPoint>& point) {
        std::string name = toString(point.param.kind) + "_" +
                           std::to_string(static_cast<int>(
                               point.param.rate * 10)) + "_" +
                           point.param.scheduler;
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });
