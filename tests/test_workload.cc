/**
 * @file
 * Unit tests for workload generation: Poisson arrivals, model mixes,
 * pattern assignment, per-model SLO references and determinism.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiments.hh"
#include "util/stats.hh"
#include "workload/source.hh"
#include "workload/workload.hh"

using namespace dysta;

namespace {

/** One shared small context for all workload tests. */
BenchContext&
ctx()
{
    static std::unique_ptr<BenchContext> instance = [] {
        BenchSetup setup;
        setup.samplesPerModel = 30;
        return makeBenchContext(setup);
    }();
    return *instance;
}

/** The trace set a generated request was drawn from. */
const TraceSet&
setOf(const Request& req)
{
    return ctx().registry.get(req.model);
}

} // namespace

TEST(Workload, GeneratesRequestedCount)
{
    WorkloadConfig cfg;
    cfg.kind = WorkloadKind::MultiAttNN;
    cfg.numRequests = 123;
    auto reqs = generateWorkload(cfg, ctx().registry);
    EXPECT_EQ(reqs.size(), 123u);
}

TEST(Workload, ArrivalsAreMonotoneAndPoisson)
{
    WorkloadConfig cfg;
    cfg.kind = WorkloadKind::MultiAttNN;
    cfg.arrivalRate = 25.0;
    cfg.numRequests = 4000;
    auto reqs = generateWorkload(cfg, ctx().registry);

    OnlineStats gaps;
    for (size_t i = 1; i < reqs.size(); ++i) {
        EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival);
        gaps.add(reqs[i].arrival - reqs[i - 1].arrival);
    }
    // Exponential gaps: mean 1/rate, stddev == mean.
    EXPECT_NEAR(gaps.mean(), 1.0 / 25.0, 0.002);
    EXPECT_NEAR(gaps.stddev(), 1.0 / 25.0, 0.004);
}

TEST(Workload, AttnnMixUsesLanguageModelsOnly)
{
    WorkloadConfig cfg;
    cfg.kind = WorkloadKind::MultiAttNN;
    cfg.numRequests = 300;
    auto reqs = generateWorkload(cfg, ctx().registry);
    std::set<std::string> seen;
    for (const auto& r : reqs) {
        seen.insert(setOf(r).modelName());
        EXPECT_EQ(setOf(r).pattern(), SparsityPattern::Dense);
    }
    EXPECT_EQ(seen, (std::set<std::string>{"bert", "gpt2", "bart"}));
}

TEST(Workload, CnnMixCoversModelsAndPatterns)
{
    WorkloadConfig cfg;
    cfg.kind = WorkloadKind::MultiCNN;
    cfg.arrivalRate = 3.0;
    cfg.numRequests = 600;
    auto reqs = generateWorkload(cfg, ctx().registry);
    std::set<std::string> models;
    std::set<SparsityPattern> patterns;
    for (const auto& r : reqs) {
        models.insert(setOf(r).modelName());
        patterns.insert(setOf(r).pattern());
    }
    EXPECT_EQ(models,
              (std::set<std::string>{"ssd300", "vgg16", "resnet50",
                                     "mobilenet"}));
    EXPECT_EQ(patterns.size(), 3u);
}

TEST(Workload, SsdIsOversampledInCnnMix)
{
    // SSD appears twice in the mix (detection + hand tracking).
    WorkloadConfig cfg;
    cfg.kind = WorkloadKind::MultiCNN;
    cfg.numRequests = 5000;
    auto reqs = generateWorkload(cfg, ctx().registry);
    int ssd = 0;
    for (const auto& r : reqs)
        ssd += setOf(r).modelName() == "ssd300";
    EXPECT_NEAR(static_cast<double>(ssd) / 5000.0, 0.4, 0.03);
}

TEST(Workload, DeadlineUsesModelAverageReference)
{
    WorkloadConfig cfg;
    cfg.kind = WorkloadKind::MultiAttNN;
    cfg.sloMultiplier = 7.0;
    cfg.numRequests = 50;
    auto reqs = generateWorkload(cfg, ctx().registry);
    for (const auto& r : reqs) {
        double ref = setOf(r).avgTotalLatency();
        EXPECT_NEAR(r.deadline, r.arrival + 7.0 * ref, 1e-9);
    }
}

TEST(Workload, DeterministicPerSeed)
{
    WorkloadConfig cfg;
    cfg.kind = WorkloadKind::MultiCNN;
    cfg.numRequests = 100;
    cfg.seed = 31;
    auto a = generateWorkload(cfg, ctx().registry);
    auto b = generateWorkload(cfg, ctx().registry);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].model.id, b[i].model.id);
        EXPECT_EQ(a[i].trace, b[i].trace);
    }
    cfg.seed = 32;
    auto c = generateWorkload(cfg, ctx().registry);
    int same = 0;
    for (size_t i = 0; i < a.size(); ++i)
        same += a[i].model == c[i].model &&
                a[i].trace == c[i].trace;
    EXPECT_LT(same, 30);
}

TEST(Workload, RegistryMissLookupIsFatal)
{
    EXPECT_EXIT(
        ctx().registry.get("resnet50", SparsityPattern::Dense),
        ::testing::ExitedWithCode(1), "missing traces");
}

TEST(Workload, BuildLutCoversAllSets)
{
    ModelInfoLut lut = ctx().registry.buildLut();
    EXPECT_EQ(lut.size(), ctx().registry.size());
    EXPECT_TRUE(lut.contains("bert", SparsityPattern::Dense));
    EXPECT_TRUE(
        lut.contains("resnet50", SparsityPattern::ChannelWise));
}

TEST(Workload, InvalidConfigIsFatal)
{
    WorkloadConfig cfg;
    cfg.arrivalRate = 0.0;
    EXPECT_EXIT(generateWorkload(cfg, ctx().registry),
                ::testing::ExitedWithCode(1), "arrival rate");
    cfg.arrivalRate = 1.0;
    cfg.numRequests = 0;
    EXPECT_EXIT(generateWorkload(cfg, ctx().registry),
                ::testing::ExitedWithCode(1), "at least one request");

    // The message names the rejected value, and the lazy source that
    // generateWorkload drains rejects the same configs.
    cfg.numRequests = -4;
    EXPECT_EXIT(generateWorkload(cfg, ctx().registry),
                ::testing::ExitedWithCode(1),
                "at least one request, got -4");
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<std::pair<double, std::string>> bad_rates = {
        {std::numeric_limits<double>::quiet_NaN(), "got nan"},
        {inf, "got inf"},
        {-inf, "got -inf"},
        {-2.5, "got -2.5"},
    };
    cfg.numRequests = 10;
    for (const auto& [rate, named] : bad_rates) {
        cfg.arrivalRate = rate;
        EXPECT_EXIT(generateWorkload(cfg, ctx().registry),
                    ::testing::ExitedWithCode(1),
                    "arrival rate must be positive and finite, " + named)
            << named;
        EXPECT_EXIT(WorkloadArrivalSource(cfg, ctx().registry).total(),
                    ::testing::ExitedWithCode(1),
                    "arrival rate must be positive and finite, " + named)
            << named;
    }
}

TEST(Workload, KindNames)
{
    EXPECT_EQ(toString(WorkloadKind::MultiAttNN), "multi-AttNN");
    EXPECT_EQ(toString(WorkloadKind::MultiCNN), "multi-CNN");
}

// --- arrival processes -----------------------------------------------------

TEST(Arrival, KindNames)
{
    EXPECT_EQ(toString(ArrivalKind::Poisson), "poisson");
    EXPECT_EQ(toString(ArrivalKind::Mmpp), "mmpp");
    EXPECT_EQ(toString(ArrivalKind::Diurnal), "diurnal");
}

TEST(Arrival, MmppIsMonotoneDeterministicAndBurstier)
{
    WorkloadConfig cfg;
    cfg.kind = WorkloadKind::MultiAttNN;
    cfg.arrivalRate = 25.0;
    cfg.arrival.kind = ArrivalKind::Mmpp;
    cfg.numRequests = 4000;
    auto reqs = generateWorkload(cfg, ctx().registry);
    auto again = generateWorkload(cfg, ctx().registry);

    OnlineStats gaps;
    for (size_t i = 1; i < reqs.size(); ++i) {
        EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival);
        EXPECT_DOUBLE_EQ(reqs[i].arrival, again[i].arrival);
        gaps.add(reqs[i].arrival - reqs[i - 1].arrival);
    }
    // A modulated Poisson process is overdispersed: the gap
    // coefficient of variation exceeds the exponential's 1.
    EXPECT_GT(gaps.stddev() / gaps.mean(), 1.1);
}

TEST(Arrival, MmppMeanRateBetweenBaseAndBurst)
{
    Rng rng(99);
    MmppArrivals mmpp(/*base=*/10.0, /*burst_mult=*/5.0,
                      /*base_dwell=*/10.0, /*burst_dwell=*/2.0);
    double t = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        t = mmpp.nextArrival(t, rng);
    double mean_rate = n / t;
    EXPECT_GT(mean_rate, 10.0);
    EXPECT_LT(mean_rate, 50.0);
}

TEST(Arrival, DiurnalRateCurveAndThinning)
{
    DiurnalArrivals diurnal(/*base=*/20.0, /*amplitude=*/0.5,
                            /*period=*/100.0);
    EXPECT_NEAR(diurnal.rateAt(0.0), 20.0, 1e-9);
    EXPECT_NEAR(diurnal.rateAt(25.0), 30.0, 1e-9); // peak at T/4
    EXPECT_NEAR(diurnal.rateAt(75.0), 10.0, 1e-9); // trough at 3T/4

    // Long-run average rate matches the base rate (sin averages out).
    Rng rng(5);
    double t = 0.0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        t = diurnal.nextArrival(t, rng);
    EXPECT_NEAR(n / t, 20.0, 1.0);
}

TEST(Arrival, DiurnalWorkloadIsMonotone)
{
    WorkloadConfig cfg;
    cfg.kind = WorkloadKind::MultiAttNN;
    cfg.arrivalRate = 25.0;
    cfg.arrival.kind = ArrivalKind::Diurnal;
    cfg.numRequests = 500;
    auto reqs = generateWorkload(cfg, ctx().registry);
    for (size_t i = 1; i < reqs.size(); ++i)
        EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival);
}

TEST(Arrival, InvalidParametersAreFatal)
{
    ArrivalConfig cfg;
    EXPECT_EXIT(makeArrivalProcess(cfg, 0.0),
                ::testing::ExitedWithCode(1), "rate must be positive");
    cfg.kind = ArrivalKind::Mmpp;
    cfg.meanBurstDwell = 0.0;
    EXPECT_EXIT(makeArrivalProcess(cfg, 1.0),
                ::testing::ExitedWithCode(1), "dwell");
    cfg = ArrivalConfig{};
    cfg.kind = ArrivalKind::Diurnal;
    cfg.amplitude = 1.5;
    EXPECT_EXIT(makeArrivalProcess(cfg, 1.0),
                ::testing::ExitedWithCode(1), "amplitude");
}
