/**
 * @file
 * Unit tests for the hardware module: FIFOs, LUTs, the FP16
 * reconfigurable compute unit (numerical agreement with the software
 * formulas, bit-for-bit agreement with Fp16/float reference
 * datapaths), the cycle-approximate hardware scheduler (decision
 * agreement with the software Dysta), and the resource model against
 * Table 6 / Fig. 16.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

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
    // A cleared FIFO starts a new run, high-water mark included.
    f.clear();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.peakOccupancy(), 0u);
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
    lut.install(ModelKey{2}, 1.5);
    EXPECT_TRUE(lut.contains(ModelKey{2}));
    EXPECT_FALSE(lut.contains(ModelKey{1}));
    EXPECT_FALSE(lut.contains(ModelKey{3}));
    EXPECT_DOUBLE_EQ(lut.read(ModelKey{2}), 1.5);
    EXPECT_EQ(lut.size(), 1u);
}

TEST(HwLut, ReinstallOverwritesInPlace)
{
    HwLut<double> lut(2);
    lut.install(ModelKey{0}, 1.0);
    lut.install(ModelKey{0}, 2.0);
    EXPECT_DOUBLE_EQ(lut.read(ModelKey{0}), 2.0);
    EXPECT_EQ(lut.size(), 1u);
}

TEST(HwLut, CapacityExceededIsFatal)
{
    HwLut<int> lut(1);
    lut.install(ModelKey{0}, 1);
    EXPECT_EXIT(lut.install(ModelKey{1}, 2), ::testing::ExitedWithCode(1),
                "capacity");
}

TEST(HwLut, MissingKeyIsFatal)
{
    HwLut<int> lut(1);
    lut.install(ModelKey{0}, 1);
    EXPECT_EXIT(lut.read(ModelKey{1}), ::testing::ExitedWithCode(1),
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
    // Table 6's decision latency is built from these counts: 3 cycles
    // and 2 datapath ops per coefficient, 9 cycles and 7 ops per score.
    for (HwPrecision p : {HwPrecision::FP16, HwPrecision::FP32}) {
        ComputeUnit cu(p);
        EXPECT_EQ(cu.sparsityCoeff(10, 100, 2.0).cycles, 3u);
        EXPECT_EQ(cu.totalCycles(), 3u);
        EXPECT_EQ(cu.totalOps(), 2u);
        EXPECT_EQ(cu.score(1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 10.0,
                           2.0)
                      .cycles,
                  9u);
        EXPECT_EQ(cu.totalCycles(), 12u);
        EXPECT_EQ(cu.totalOps(), 9u);
        cu.resetCounters();
        EXPECT_EQ(cu.totalCycles(), 0u);
        EXPECT_EQ(cu.totalOps(), 0u);
    }
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

namespace {

/**
 * Reference datapath in T = Fp16 or float: every operand is rounded
 * into T and every operation rounds its result, in the order the
 * compute unit issues them.
 */
template <typename T>
double
refSparsityCoeff(uint64_t num_zeros, uint64_t shape,
                 double recip_avg_density)
{
    uint64_t nnz = shape - std::min(num_zeros, shape);
    double recip_q032 =
        std::floor(4294967296.0 / static_cast<double>(shape) + 0.5) /
        4294967296.0;
    T density = static_cast<T>(static_cast<double>(nnz) * recip_q032);
    T gamma = density * static_cast<T>(recip_avg_density);
    return static_cast<float>(gamma);
}

template <typename T>
double
refScore(double gamma, double avg_remaining, double ddl_minus_now,
         double wait, double recip_isolation, double recip_queue,
         double eta, double slack_floor, double slack_cap,
         double penalty_cap)
{
    auto q = [](double v) { return static_cast<T>(v); };
    T rem = q(gamma) * q(avg_remaining);
    T slack = std::clamp(q(ddl_minus_now) - rem, q(slack_floor),
                         q(slack_cap));
    T norm_wait =
        std::min(q(wait) * q(recip_isolation), q(penalty_cap));
    T penalty = norm_wait * q(recip_queue);
    T urgency = slack + penalty;
    T weighted = q(eta) * urgency;
    return static_cast<float>(rem + weighted);
}

/** The bits of `v`; all NaNs compare equal. */
uint64_t
bitsOf(double v)
{
    if (std::isnan(v))
        return 0x7FF8000000000000ull;
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Log-uniform magnitude over [2^-30, 2^17], with a random sign. */
double
wideOperand(Rng& rng, bool signed_value)
{
    double v = std::exp2(rng.uniform(-30.0, 17.0));
    return signed_value && rng.bernoulli(0.5) ? -v : v;
}

template <typename T>
void
expectDatapathMatchesReference(HwPrecision precision)
{
    ComputeUnit cu(precision);
    Rng rng(2024);
    for (int i = 0; i < 20000; ++i) {
        // Half the draws stay in the scheduler's working range, half
        // span binary16's subnormals and overflow.
        bool wide = i % 2 == 1;
        auto draw = [&](double lo, double hi, bool signed_value) {
            return wide ? wideOperand(rng, signed_value)
                        : rng.uniform(lo, hi);
        };
        auto shape = static_cast<uint64_t>(rng.uniformInt(1, 1 << 22));
        auto zeros = static_cast<uint64_t>(rng.uniformInt(
            0, static_cast<int64_t>(shape) + 8));
        double recip_density = draw(1.0, 1000.0, false);
        ASSERT_EQ(bitsOf(cu.sparsityCoeff(zeros, shape, recip_density)
                             .value),
                  bitsOf(refSparsityCoeff<T>(zeros, shape,
                                             recip_density)))
            << "zeros=" << zeros << " shape=" << shape
            << " recip_density=" << recip_density;

        double gamma = draw(0.25, 4.0, false);
        double avg_remaining = draw(0.0, 0.5, false);
        double ddl_minus_now = draw(-1.0, 1.0, true);
        double wait = draw(0.0, 1.0, false);
        double recip_isolation = draw(1.0, 1000.0, false);
        double recip_queue = 1.0 / static_cast<double>(
                                       rng.uniformInt(1, 64));
        double eta = draw(0.0, 1.0, false);
        double slack_floor = draw(-0.5, 0.0, true);
        double slack_cap = draw(0.0, 5.0, true);
        if (slack_cap < slack_floor)
            std::swap(slack_floor, slack_cap);
        double penalty_cap = draw(0.5, 4.0, false);
        // LUT words and registers are rounded once; a compute-unit
        // output (gamma) is fed back as is, so rounding is idempotent.
        float once = cu.quantize(ddl_minus_now);
        ASSERT_EQ(bitsOf(cu.quantize(once)), bitsOf(once)) << i;
        ASSERT_EQ(bitsOf(cu.score(gamma, avg_remaining, ddl_minus_now,
                                  wait, recip_isolation, recip_queue,
                                  eta, slack_floor, slack_cap,
                                  penalty_cap)
                             .value),
                  bitsOf(refScore<T>(gamma, avg_remaining,
                                     ddl_minus_now, wait,
                                     recip_isolation, recip_queue, eta,
                                     slack_floor, slack_cap,
                                     penalty_cap)))
            << "draw " << i;
    }
}

} // namespace

TEST(ComputeUnit, Fp16DatapathMatchesFp16ReferenceBitForBit)
{
    expectDatapathMatchesReference<Fp16>(HwPrecision::FP16);
}

TEST(ComputeUnit, Fp32DatapathMatchesFloatReferenceBitForBit)
{
    expectDatapathMatchesReference<float>(HwPrecision::FP32);
}

namespace {

/**
 * The score datapath with nothing held pre-rounded: every operand and
 * every binary64 op result goes through the binary32 -> binary16
 * conversion chain, in the order the compute unit issues the ops.
 */
double
quantizeEverythingScore(HwPrecision precision, double gamma,
                        double avg_remaining, double ddl_minus_now,
                        double wait, double recip_isolation,
                        double recip_queue, double eta,
                        double slack_floor, double slack_cap,
                        double penalty_cap)
{
    auto q = [precision](double v) {
        auto f = static_cast<float>(v);
        if (precision == HwPrecision::FP16)
            f = halfBitsToFloat(floatToHalfBits(f));
        return static_cast<double>(f);
    };
    double rem = q(q(gamma) * q(avg_remaining));
    double slack = std::clamp(q(q(ddl_minus_now) - rem), q(slack_floor),
                              q(slack_cap));
    double norm_wait =
        std::min(q(q(wait) * q(recip_isolation)), q(penalty_cap));
    double penalty = q(norm_wait * q(recip_queue));
    double urgency = q(slack + penalty);
    double weighted = q(q(eta) * urgency);
    return q(rem + weighted);
}

/**
 * An operand from the ranges where rounding is easiest to get wrong:
 * zeros, binary16 subnormals and below, the overflow edge at 65520
 * and beyond, infinity, exact binary16 ties and values just off
 * them, and ordinary values.
 */
double
edgeOperand(Rng& rng, bool negative_ok)
{
    double v = 0.0;
    switch (rng.uniformInt(0, 8)) {
      case 0:
        v = 0.0;
        break;
      case 1:
        v = std::exp2(rng.uniform(-27.0, -14.0));
        break;
      case 2:
        v = rng.uniform(65504.0, 65536.0);
        break;
      case 3:
        v = rng.bernoulli(0.5) ? 65520.0
                               : std::exp2(rng.uniform(16.0, 40.0));
        break;
      case 4:
        v = rng.bernoulli(0.9) ? rng.uniform(0.0, 1e4)
                               : std::numeric_limits<double>::infinity();
        break;
      case 5:
        // Halfway between two binary16 neighbours.
        v = (1.0 + (2.0 * static_cast<double>(rng.uniformInt(0, 1023)) +
                    1.0) / 2048.0) *
            std::exp2(static_cast<double>(rng.uniformInt(-12, 12)));
        break;
      case 6:
        // Just off a binary16 tie, closer than half a binary32 step:
        // binary32 lands on the tie, which then goes to even.
        v = (1.0 + (2.0 * static_cast<double>(rng.uniformInt(0, 1023)) +
                    1.0) / 2048.0) *
            (1.0 + (rng.bernoulli(0.5) ? 1.0 : -1.0) *
                       std::exp2(-rng.uniform(26.0, 45.0))) *
            std::exp2(static_cast<double>(rng.uniformInt(-12, 12)));
        break;
      default:
        v = rng.uniform(0.0, 4.0);
        break;
    }
    return negative_ok && rng.bernoulli(0.5) ? -v : v;
}

void
expectKernelMatchesQuantizeEverything(HwPrecision precision)
{
    ComputeUnit cu(precision);
    Rng rng(23);
    constexpr int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i) {
        double gamma = edgeOperand(rng, false);
        double avg_remaining = edgeOperand(rng, false);
        double ddl_minus_now = edgeOperand(rng, true);
        double wait = edgeOperand(rng, false);
        double recip_isolation = edgeOperand(rng, false);
        double recip_queue =
            rng.bernoulli(0.8)
                ? 1.0 / static_cast<double>(rng.uniformInt(1, 64))
                : edgeOperand(rng, false);
        double eta = edgeOperand(rng, false);
        double slack_floor = edgeOperand(rng, true);
        double slack_cap = edgeOperand(rng, true);
        if (slack_cap < slack_floor)
            std::swap(slack_floor, slack_cap);
        double penalty_cap = edgeOperand(rng, false);

        double ref = quantizeEverythingScore(
            precision, gamma, avg_remaining, ddl_minus_now, wait,
            recip_isolation, recip_queue, eta, slack_floor, slack_cap,
            penalty_cap);
        float kernel = cu.scoreQuantized(
            cu.quantize(gamma), cu.quantize(avg_remaining),
            ddl_minus_now, wait, cu.quantize(recip_isolation),
            cu.quantize(recip_queue), cu.quantize(eta),
            cu.quantize(slack_floor), cu.quantize(slack_cap),
            cu.quantize(penalty_cap));
        ASSERT_EQ(bitsOf(kernel), bitsOf(ref))
            << "draw " << i << ": gamma=" << gamma
            << " avg_remaining=" << avg_remaining
            << " ddl_minus_now=" << ddl_minus_now << " wait=" << wait
            << " recip_isolation=" << recip_isolation
            << " recip_queue=" << recip_queue << " eta=" << eta
            << " slack=[" << slack_floor << ", " << slack_cap
            << "] penalty_cap=" << penalty_cap;
        // LUT words and registers are rounded once; a compute-unit
        // output (gamma) is fed back as is, so rounding is idempotent.
        float once = cu.quantize(ddl_minus_now);
        ASSERT_EQ(bitsOf(cu.quantize(once)), bitsOf(once)) << i;
        ASSERT_EQ(bitsOf(cu.score(gamma, avg_remaining, ddl_minus_now,
                                  wait, recip_isolation, recip_queue,
                                  eta, slack_floor, slack_cap,
                                  penalty_cap)
                             .value),
                  bitsOf(ref))
            << "draw " << i;
    }
    // Both entry points charge the same 9 cycles and 7 ops.
    EXPECT_EQ(cu.totalCycles(), 2u * 9u * kDraws);
    EXPECT_EQ(cu.totalOps(), 2u * 7u * kDraws);
}

} // namespace

TEST(ComputeUnit, Fp16KernelMatchesQuantizeEverythingBitForBit)
{
    expectKernelMatchesQuantizeEverything(HwPrecision::FP16);
}

TEST(ComputeUnit, Fp32KernelMatchesQuantizeEverythingBitForBit)
{
    expectKernelMatchesQuantizeEverything(HwPrecision::FP32);
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

TEST(HwScheduler, ChargesPinnedCyclesPerCandidateAndLayer)
{
    // One decision costs a 9-cycle score plus one argmin comparator
    // cycle per resident candidate; an observed layer costs a 3-cycle
    // coefficient.
    auto& f = hwFixture();
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.numRequests = 8;
    std::vector<Request> requests =
        generateWorkload(wl, f.ctx->registry);
    DystaHwScheduler hw(f.ctx->lut, f.ctx->models);
    std::vector<const Request*> ready;
    for (size_t i = 0; i < requests.size(); ++i) {
        requests[i].slot = static_cast<int>(i);
        hw.onArrival(requests[i], requests[i].arrival);
        ready.push_back(&requests[i]);
    }
    double now = requests.back().arrival;
    hw.selectNext(ready, now);
    EXPECT_EQ(hw.decisions(), 1u);
    EXPECT_EQ(hw.totalCycles(), 10u * requests.size());

    requests[0].nextLayer = 1;
    hw.onLayerComplete(requests[0], now, 0.5);
    EXPECT_EQ(hw.totalCycles(), 10u * requests.size() + 3u);
}

TEST(HwScheduler, ResetForgetsFifoPeak)
{
    auto& f = hwFixture();
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 35.0;
    wl.numRequests = 120;
    wl.seed = 6;

    DystaHwScheduler hw(f.ctx->lut, f.ctx->models);
    runOne(*f.ctx, wl, hw);
    ASSERT_GT(hw.fifoPeakOccupancy(), 3u);

    hw.reset();
    wl.numRequests = 3;
    SimResult r = runOne(*f.ctx, wl, hw);
    EXPECT_EQ(r.metrics.completed, 3u);
    EXPECT_LE(hw.fifoPeakOccupancy(), 3u);
}

TEST(HwScheduler, LayerCountMismatchPanics)
{
    // A LUT entry profiled for a deeper network than the model the
    // shape LUT walks would read past model.layers.
    auto& f = hwFixture();
    ModelDesc model = f.ctx->models.front();
    const TraceSet& real =
        f.ctx->registry.get(model.name, SparsityPattern::Dense);
    TraceSet deeper(model.name, model.family, SparsityPattern::Dense);
    for (SampleTrace s : real.all()) {
        s.layers.push_back(s.layers.back());
        s.finalize();
        deeper.add(std::move(s));
    }
    ModelInfoLut lut;
    lut.addFromTrace(deeper);
    EXPECT_DEATH(DystaHwScheduler(lut, {model}),
                 "LUT entry " + model.name + "/dense has " +
                     std::to_string(model.layers.size() + 1) +
                     " layers, model " + model.name + " has " +
                     std::to_string(model.layers.size()));
}

namespace {

/** Requests of one model with all scheduler-visible fields pinned. */
std::vector<Request>
pinnedRequests(size_t n, double now)
{
    auto& f = hwFixture();
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.numRequests = static_cast<int>(n);
    std::vector<Request> requests =
        generateWorkload(wl, f.ctx->registry);
    for (size_t i = 0; i < requests.size(); ++i) {
        requests[i].slot = static_cast<int>(i);
        requests[i].model = requests[0].model;
        requests[i].arrival = now;
        requests[i].lastRunEnd = now;
    }
    return requests;
}

} // namespace

TEST(HwScheduler, TinyFifoBackfillsInArrivalOrder)
{
    // Later arrivals are more urgent, so whichever request the FIFO
    // holds shows in every pick: a request still in the host queue
    // must never be chosen, however low its score would be.
    auto& f = hwFixture();
    double now = 1.0;
    std::vector<Request> r = pinnedRequests(5, now);
    const ModelInfo& info = f.ctx->lut.lookup(r[0].model);
    for (size_t i = 0; i < r.size(); ++i) {
        r[i].deadline = now + info.estRemaining(0) +
                        static_cast<double>(5 - i) * info.avgLatency;
    }

    HwSchedulerConfig cfg;
    cfg.fifoDepth = 2;
    DystaHwScheduler hw(f.ctx->lut, f.ctx->models, cfg);
    for (const Request& req : r)
        hw.onArrival(req, now); // r0, r1 resident; r2..r4 queued
    auto pick = [&](std::vector<Request*> ready) {
        Request* p = hw.pickNext(ready, now);
        std::vector<const Request*> view(ready.begin(), ready.end());
        EXPECT_EQ(ready[hw.selectNext(view, now)], p);
        return p;
    };

    EXPECT_EQ(pick({&r[0], &r[1], &r[2], &r[3], &r[4]}), &r[1]);
    hw.onComplete(r[1], now); // back-fills r2, not the urgent r4
    EXPECT_EQ(pick({&r[0], &r[2], &r[3], &r[4]}), &r[2]);
    hw.onDequeue(r[3], now); // leaves from the host queue
    EXPECT_EQ(pick({&r[0], &r[2], &r[4]}), &r[2]);
    hw.onComplete(r[2], now); // skips the departed r3, admits r4
    EXPECT_EQ(pick({&r[0], &r[4]}), &r[4]);
    hw.onComplete(r[4], now);
    EXPECT_EQ(pick({&r[0]}), &r[0]);
    EXPECT_EQ(hw.fifoPeakOccupancy(), 2u);

    // A ready set of host-queue requests only has nothing to run.
    hw.reset();
    for (const Request& req : r)
        hw.onArrival(req, now);
    std::vector<const Request*> queued = {&r[2], &r[3], &r[4]};
    EXPECT_DEATH(hw.selectNext(queued, now), "no resident request");
}

TEST(HwScheduler, PickNextMatchesSelectNextUnderFp16Ties)
{
    // Deadlines and waits that differ below binary16 resolution make
    // whole groups of candidates score alike; both entry points must
    // pick the first minimum in ready-set order, and charge alike.
    auto& f = hwFixture();
    const double now = 2.0;
    std::vector<Request> r = pinnedRequests(48, now);
    ModelKey other = r[0].model;
    for (const ModelDesc& m : f.ctx->models) {
        ModelKey k = f.ctx->lut.key(m.name, SparsityPattern::Dense);
        if (k.id != r[0].model.id)
            other = k;
    }
    Rng rng(11);
    for (Request& req : r) {
        if (rng.bernoulli(0.3))
            req.model = other;
        req.nextLayer = static_cast<size_t>(rng.uniformInt(0, 2));
        // Levels 1-3 leave slack below the cap; level 60 clamps to it.
        int level = rng.bernoulli(0.25) ? 60 : static_cast<int>(
                                                   rng.uniformInt(1, 3));
        req.deadline = now + 0.05 * static_cast<double>(level) +
                       1e-9 * static_cast<double>(rng.uniformInt(0, 9));
        req.lastRunEnd = now - 0.01 * static_cast<double>(
                                          rng.uniformInt(0, 2)) -
                         1e-9 * static_cast<double>(rng.uniformInt(0, 9));
    }

    HwSchedulerConfig cfg;
    cfg.fifoDepth = 40; // the last 8 arrivals wait in the host queue
    DystaHwScheduler by_select(f.ctx->lut, f.ctx->models, cfg);
    DystaHwScheduler by_pick(f.ctx->lut, f.ctx->models, cfg);
    for (const Request& req : r) {
        by_select.onArrival(req, now);
        by_pick.onArrival(req, now);
    }

    ComputeUnit ref_cu(cfg.precision);
    uint64_t resident_scored = 0;
    size_t tied_decisions = 0;
    constexpr size_t kDecisions = 400;
    for (size_t d = 0; d < kDecisions; ++d) {
        // Every fourth ready set holds only capped-slack candidates.
        bool capped_only = d % 4 == 0;
        std::vector<Request*> ready;
        for (Request& req : r) {
            if ((!capped_only || req.deadline > now + 1.0) &&
                rng.bernoulli(0.4))
                ready.push_back(&req);
        }
        // At least one FIFO-resident candidate.
        Request* resident = &r[static_cast<size_t>(rng.uniformInt(0, 39))];
        if (std::find(ready.begin(), ready.end(), resident) == ready.end())
            ready.push_back(resident);
        rng.shuffle(ready);

        // The reference: the checked score() per resident candidate
        // (arrival index < 40), first minimum in ready-set order.
        size_t expected = ready.size();
        double best = 0.0;
        size_t at_best = 0;
        for (size_t i = 0; i < ready.size(); ++i) {
            const Request& req = *ready[i];
            if (req.id >= 40)
                continue;
            ++resident_scored;
            const ModelInfo& info = f.ctx->lut.lookup(req.model);
            double score =
                ref_cu
                    .score(1.0, info.estRemaining(req.nextLayer),
                           req.deadline - now, now - req.lastRunEnd,
                           1.0 / info.avgLatency,
                           1.0 / static_cast<double>(ready.size()),
                           cfg.eta, cfg.slackFloor,
                           cfg.slackCapFactor * info.avgLatency,
                           cfg.penaltyCap)
                    .value;
            if (expected == ready.size() || score < best) {
                expected = i;
                best = score;
                at_best = 1;
            } else if (score == best) {
                ++at_best;
            }
        }
        if (at_best > 1)
            ++tied_decisions;

        std::vector<const Request*> view(ready.begin(), ready.end());
        size_t selected = by_select.selectNext(view, now);
        Request* picked = by_pick.pickNext(ready, now);
        ASSERT_EQ(selected, expected) << "decision " << d;
        ASSERT_EQ(picked, ready[expected]) << "decision " << d;
    }
    EXPECT_GT(tied_decisions, kDecisions / 4);
    EXPECT_EQ(by_select.decisions(), kDecisions);
    EXPECT_EQ(by_pick.decisions(), kDecisions);
    EXPECT_EQ(by_select.totalCycles(), 10u * resident_scored);
    EXPECT_EQ(by_pick.totalCycles(), 10u * resident_scored);
}

TEST(HwScheduler, CycleAndDecisionCountsArePinned)
{
    // One fixed overloaded run, with and without FIFO overflow. The
    // counts price every score (9 cycles), argmin stage (1) and
    // coefficient (3); no datapath or host-queue change may move them.
    auto& f = hwFixture();
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 40.0;
    wl.numRequests = 300;
    wl.seed = 21;
    struct Pinned
    {
        size_t depth;
        uint64_t cycles;
        size_t peak;
    };
    for (Pinned p : {Pinned{64, 7244034, 64}, Pinned{4, 978634, 4}}) {
        HwSchedulerConfig cfg;
        cfg.fifoDepth = p.depth;
        DystaHwScheduler hw(f.ctx->lut, f.ctx->models, cfg);
        SimResult result = runOne(*f.ctx, wl, hw);
        EXPECT_EQ(result.metrics.completed, 300u) << p.depth;
        EXPECT_EQ(hw.decisions(), 24216u) << p.depth;
        EXPECT_EQ(hw.totalCycles(), p.cycles) << p.depth;
        EXPECT_EQ(hw.fifoPeakOccupancy(), p.peak) << p.depth;
    }
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
