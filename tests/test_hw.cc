/**
 * @file
 * Unit tests for the hardware module: FIFOs, LUTs, the FP16
 * reconfigurable compute unit (numerical agreement with the software
 * formulas), the cycle-approximate hardware scheduler (decision
 * agreement with the software Dysta), and the resource model against
 * Table 6 / Fig. 16.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/dysta.hh"
#include "exp/experiments.hh"
#include "hw/compute_unit.hh"
#include "hw/fifo.hh"
#include "hw/hw_scheduler.hh"
#include "hw/lut.hh"
#include "hw/resource_model.hh"
#include "sched/engine.hh"
#include "util/rng.hh"

using namespace dysta;

// --- Fifo ---

TEST(Fifo, PushPopOrder)
{
    Fifo<int> f(4);
    EXPECT_TRUE(f.empty());
    f.push(1);
    f.push(2);
    f.push(3);
    EXPECT_EQ(f.size(), 3u);
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.pop(), 2);
    EXPECT_EQ(f.pop(), 3);
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, RejectsWhenFull)
{
    Fifo<int> f(2);
    EXPECT_TRUE(f.push(1));
    EXPECT_TRUE(f.push(2));
    EXPECT_TRUE(f.full());
    EXPECT_FALSE(f.push(3));
    EXPECT_EQ(f.size(), 2u);
}

TEST(Fifo, PeakOccupancyTracksHighWater)
{
    Fifo<int> f(8);
    f.push(1);
    f.push(2);
    f.push(3);
    f.pop();
    f.pop();
    f.push(4);
    EXPECT_EQ(f.peakOccupancy(), 3u);
}

TEST(Fifo, EraseByIndex)
{
    Fifo<int> f(4);
    f.push(10);
    f.push(20);
    f.push(30);
    f.erase(1);
    EXPECT_EQ(f.size(), 2u);
    EXPECT_EQ(f.at(0), 10);
    EXPECT_EQ(f.at(1), 30);
}

TEST(Fifo, PopEmptyPanics)
{
    Fifo<int> f(2);
    EXPECT_DEATH(f.pop(), "empty");
}

// --- HwLut ---

TEST(HwLut, InstallAndRead)
{
    HwLut<double> lut(4);
    size_t id = lut.install("a", 1.5);
    EXPECT_TRUE(lut.contains("a"));
    EXPECT_EQ(lut.idOf("a"), id);
    EXPECT_DOUBLE_EQ(lut.read(id), 1.5);
}

TEST(HwLut, ReinstallOverwritesInPlace)
{
    HwLut<double> lut(2);
    size_t id1 = lut.install("a", 1.0);
    size_t id2 = lut.install("a", 2.0);
    EXPECT_EQ(id1, id2);
    EXPECT_DOUBLE_EQ(lut.read(id1), 2.0);
    EXPECT_EQ(lut.size(), 1u);
}

TEST(HwLut, CapacityExceededIsFatal)
{
    HwLut<int> lut(1);
    lut.install("a", 1);
    EXPECT_EXIT(lut.install("b", 2), ::testing::ExitedWithCode(1),
                "capacity");
}

TEST(HwLut, MissingKeyIsFatal)
{
    HwLut<int> lut(1);
    EXPECT_EXIT(lut.idOf("nope"), ::testing::ExitedWithCode(1),
                "missing");
}

// --- ComputeUnit ---

TEST(ComputeUnit, SparsityCoeffMatchesDensityRatio)
{
    ComputeUnit cu(HwPrecision::FP16);
    // 30% zeros over 4096 elements; average density 0.6.
    CuResult r = cu.sparsityCoeff(1229, 4096, 1.0 / 0.6);
    double expected = (1.0 - 1229.0 / 4096.0) / 0.6;
    EXPECT_NEAR(r.value, expected, expected * 2e-3);
    EXPECT_EQ(r.cycles, 3u);
}

TEST(ComputeUnit, ScoreMatchesSoftwareFormula)
{
    ComputeUnit cu(HwPrecision::FP16);
    double gamma = 1.2;
    double avg_remaining = 0.03;
    double ddl_minus_now = 0.25;
    double wait = 0.02;
    double recip_isol = 1.0 / 0.04;
    double recip_queue = 1.0 / 8.0;
    double eta = 0.05;

    CuResult r = cu.score(gamma, avg_remaining, ddl_minus_now, wait,
                          recip_isol, recip_queue, eta, 0.0, 0.4,
                          2.0);

    double rem = gamma * avg_remaining;
    double slack = std::clamp(ddl_minus_now - rem, 0.0, 0.4);
    double penalty = std::min(wait * recip_isol, 2.0) * recip_queue;
    double expected = rem + eta * (slack + penalty);
    EXPECT_NEAR(r.value, expected, std::abs(expected) * 5e-3);
}

TEST(ComputeUnit, ScoreAppliesClamps)
{
    ComputeUnit cu(HwPrecision::FP32);
    // Blown deadline: ddl_minus_now - rem is negative -> floor 0.
    CuResult blown = cu.score(1.0, 0.5, -3.0, 0.0, 1.0, 1.0, 1.0,
                              0.0, 10.0, 2.0);
    EXPECT_NEAR(blown.value, 0.5, 1e-6);
    // Huge wait: penalty capped at 2.0.
    CuResult waited = cu.score(1.0, 0.5, 0.5, 100.0, 1.0, 1.0, 1.0,
                               0.0, 10.0, 2.0);
    EXPECT_NEAR(waited.value, 0.5 + (0.0 + 2.0), 1e-5);
}

TEST(ComputeUnit, CycleAccounting)
{
    ComputeUnit cu(HwPrecision::FP16);
    cu.resetCounters();
    cu.sparsityCoeff(10, 100, 2.0);
    cu.score(1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 10.0, 2.0);
    EXPECT_GT(cu.totalCycles(), 0u);
    EXPECT_GT(cu.totalOps(), 0u);
    uint64_t before = cu.totalCycles();
    cu.resetCounters();
    EXPECT_EQ(cu.totalCycles(), 0u);
    EXPECT_LT(cu.totalCycles(), before);
}

TEST(ComputeUnit, Fp32MorePreciseThanFp16)
{
    ComputeUnit cu16(HwPrecision::FP16);
    ComputeUnit cu32(HwPrecision::FP32);
    double exact = (1.0 - 1000.0 / 4096.0) / 0.613;
    double v16 = cu16.sparsityCoeff(1000, 4096, 1.0 / 0.613).value;
    double v32 = cu32.sparsityCoeff(1000, 4096, 1.0 / 0.613).value;
    EXPECT_LE(std::abs(v32 - exact), std::abs(v16 - exact) + 1e-9);
}

// --- DystaHwScheduler vs software Dysta ---

namespace {

struct HwSwFixture
{
    std::unique_ptr<BenchContext> ctx;

    HwSwFixture()
    {
        BenchSetup setup;
        setup.samplesPerModel = 40;
        setup.includeCnn = false; // AttNN-only keeps it fast
        ctx = makeBenchContext(setup);
    }
};

HwSwFixture&
hwFixture()
{
    static HwSwFixture f;
    return f;
}

} // namespace

TEST(HwScheduler, MetricsTrackSoftwareDysta)
{
    auto& f = hwFixture();
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 30.0;
    wl.numRequests = 200;
    wl.seed = 9;

    auto sw = makeSchedulerByName("Dysta", *f.ctx, wl.kind);
    auto hw = makeSchedulerByName("Dysta-HW", *f.ctx, wl.kind);
    SimResult sw_result = runOne(*f.ctx, wl, *sw);
    SimResult hw_result = runOne(*f.ctx, wl, *hw);

    // FP16 rounding may flip near-tie decisions; aggregate metrics
    // must stay close.
    EXPECT_NEAR(hw_result.metrics.antt, sw_result.metrics.antt,
                0.15 * sw_result.metrics.antt + 0.05);
    EXPECT_NEAR(hw_result.metrics.violationRate,
                sw_result.metrics.violationRate, 0.03);
}

TEST(HwScheduler, ChargesCyclesPerDecision)
{
    auto& f = hwFixture();
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 30.0;
    wl.numRequests = 100;
    wl.seed = 4;

    DystaHwScheduler hw(f.ctx->lut, f.ctx->models);
    runOne(*f.ctx, wl, hw);
    EXPECT_GT(hw.decisions(), 0u);
    EXPECT_GT(hw.totalCycles(), hw.decisions());
    EXPECT_GT(hw.avgDecisionCycles(), 1.0);
    // At 200 MHz a decision over a handful of requests is sub-us:
    // negligible against multi-ms layers.
    EXPECT_LT(hw.avgDecisionSeconds(), 5e-6);
}

TEST(HwScheduler, Fp32DatapathMatchesSoftwareExactly)
{
    // With an FP32 datapath the hardware model and the software
    // scheduler are the same algorithm: metrics must be identical.
    auto& f = hwFixture();
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 30.0;
    wl.numRequests = 150;
    wl.seed = 12;

    auto sw = makeSchedulerByName("Dysta", *f.ctx, wl.kind);
    HwSchedulerConfig cfg;
    cfg.precision = HwPrecision::FP32;
    cfg.eta = tunedDystaConfig(false).eta;
    DystaHwScheduler hw(f.ctx->lut, f.ctx->models, cfg);

    SimResult sw_result = runOne(*f.ctx, wl, *sw);
    SimResult hw_result = runOne(*f.ctx, wl, hw);
    EXPECT_DOUBLE_EQ(hw_result.metrics.antt, sw_result.metrics.antt);
    EXPECT_DOUBLE_EQ(hw_result.metrics.violationRate,
                     sw_result.metrics.violationRate);
}

TEST(HwScheduler, TinyFifoStillCompletesEverything)
{
    auto& f = hwFixture();
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 35.0;
    wl.numRequests = 120;
    wl.seed = 6;

    HwSchedulerConfig cfg;
    cfg.fifoDepth = 2; // overflow exercises the host-side queue
    DystaHwScheduler hw(f.ctx->lut, f.ctx->models, cfg);
    SimResult r = runOne(*f.ctx, wl, hw);
    EXPECT_EQ(r.metrics.completed, 120u);
    EXPECT_LE(hw.fifoPeakOccupancy(), 2u);
}

// --- Resource model ---

TEST(Resources, Table6Ballpark)
{
    HwDesignConfig cfg{HwPrecision::FP16, true, 64};
    ResourceEstimate r = estimateScheduler(cfg);
    // Paper: 553 LUTs / 3 DSPs / 0.5 KB.
    EXPECT_NEAR(r.luts, 553.0, 0.25 * 553.0);
    EXPECT_DOUBLE_EQ(r.dsps, 3.0);
    EXPECT_NEAR(r.ramKB, 0.5, 0.25);
}

TEST(Resources, OptimizationsMonotonicallyShrinkTheDesign)
{
    for (size_t depth : {size_t{64}, size_t{512}}) {
        ResourceEstimate non_opt =
            estimateScheduler({HwPrecision::FP32, false, depth});
        ResourceEstimate opt32 =
            estimateScheduler({HwPrecision::FP32, true, depth});
        ResourceEstimate opt16 =
            estimateScheduler({HwPrecision::FP16, true, depth});
        EXPECT_GT(non_opt.luts, opt32.luts);
        EXPECT_GT(opt32.luts, opt16.luts);
        EXPECT_GT(non_opt.ffs, opt32.ffs);
        EXPECT_GT(opt32.ffs, opt16.ffs);
        EXPECT_GE(non_opt.dsps, opt32.dsps);
        EXPECT_GT(opt32.dsps, opt16.dsps);
    }
}

TEST(Resources, FifoDepthGrowsMemorySide)
{
    ResourceEstimate d64 =
        estimateScheduler({HwPrecision::FP16, true, 64});
    ResourceEstimate d512 =
        estimateScheduler({HwPrecision::FP16, true, 512});
    EXPECT_GT(d512.luts, d64.luts);
    EXPECT_GT(d512.ramKB, d64.ramKB);
    EXPECT_DOUBLE_EQ(d512.dsps, d64.dsps); // datapath unchanged
}

TEST(Resources, OverheadVsEyerissIsNegligible)
{
    ResourceEstimate sched =
        estimateScheduler({HwPrecision::FP16, true, 64});
    ResourceEstimate eyeriss = eyerissV2Resources();
    EXPECT_LT(sched.luts / eyeriss.luts, 0.01);
    EXPECT_LT(sched.dsps / eyeriss.dsps, 0.03);
    EXPECT_LT(sched.ramKB / eyeriss.ramKB, 0.01);
}

TEST(Resources, DesignNames)
{
    EXPECT_EQ(designName({HwPrecision::FP32, false, 64}),
              "Non_Opt_FP32");
    EXPECT_EQ(designName({HwPrecision::FP32, true, 64}), "Opt_FP32");
    EXPECT_EQ(designName({HwPrecision::FP16, true, 64}), "Opt_FP16");
}
