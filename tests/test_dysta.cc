/**
 * @file
 * Unit tests for the Dysta core: static scoring (Alg. 1), dynamic
 * scoring (Alg. 2), the sparse latency predictor (Alg. 3) with its
 * three coefficient strategies, and the ablation switches.
 */

#include <gtest/gtest.h>

#include "core/dysta.hh"
#include "core/latency_predictor.hh"
#include "sched/engine.hh"
#include "sched/fcfs.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

using namespace dysta;
using dysta::test::World;

namespace {

/** Synthetic LUT entry with controlled per-layer stats. */
ModelInfo
syntheticInfo()
{
    ModelInfo info;
    info.model = "synthetic";
    info.pattern = SparsityPattern::Dense;
    info.avgLayerLatency = {0.1, 0.2, 0.3, 0.4};
    info.avgLayerSparsity = {0.5, 0.4, -1.0, 0.2};
    info.avgLatency = 1.0;
    info.avgNetworkSparsity = (0.5 + 0.4 + 0.2) / 3.0;
    info.remainingFrom = {1.0, 0.9, 0.7, 0.4, 0.0};
    return info;
}

std::vector<const Request*>
view(const std::vector<Request>& reqs)
{
    std::vector<const Request*> v;
    for (const auto& r : reqs)
        v.push_back(&r);
    return v;
}

} // namespace

// --- SparseLatencyPredictor ---

TEST(Predictor, GammaIsOneWithoutObservations)
{
    ModelInfo info = syntheticInfo();
    SparseLatencyPredictor pred(info, {});
    EXPECT_DOUBLE_EQ(pred.gamma(), 1.0);
    EXPECT_DOUBLE_EQ(pred.predictRemaining(0), 1.0);
    EXPECT_DOUBLE_EQ(pred.predictRemaining(2), 0.7);
    EXPECT_DOUBLE_EQ(pred.predictTotal(), 1.0);
}

TEST(Predictor, LastOneUsesAlignedBaseline)
{
    ModelInfo info = syntheticInfo();
    PredictorConfig cfg;
    cfg.strategy = PredictorStrategy::LastOne;
    SparseLatencyPredictor pred(info, cfg);
    // Layer 1: monitored density 0.45, baseline density 0.6.
    pred.observe(1, 0.55);
    EXPECT_NEAR(pred.gamma(), 0.45 / 0.6, 1e-12);
    // A later observation replaces the estimate entirely.
    pred.observe(3, 0.2);
    EXPECT_NEAR(pred.gamma(), 0.8 / 0.8, 1e-12);
}

TEST(Predictor, AverageAllUsesNetworkBaseline)
{
    ModelInfo info = syntheticInfo();
    PredictorConfig cfg;
    cfg.strategy = PredictorStrategy::AverageAll;
    SparseLatencyPredictor pred(info, cfg);
    pred.observe(0, 0.5);
    pred.observe(1, 0.3);
    // Observed mean density (0.5 + 0.7)/2 = 0.6; network baseline
    // density = 1 - 11/30 = 19/30.
    double base = 1.0 - info.avgNetworkSparsity;
    EXPECT_NEAR(pred.gamma(), 0.6 / base, 1e-12);
}

TEST(Predictor, LastNMixesWindowAgainstCurrentBaseline)
{
    ModelInfo info = syntheticInfo();
    PredictorConfig cfg;
    cfg.strategy = PredictorStrategy::LastN;
    cfg.lastN = 2;
    SparseLatencyPredictor pred(info, cfg);
    pred.observe(0, 0.5);
    pred.observe(1, 0.3);
    pred.observe(3, 0.1);
    // Window = layers {1, 3}: mean density (0.7 + 0.9)/2 = 0.8,
    // baselined on layer 3's density 0.8 only (Alg. 3 line 4).
    EXPECT_NEAR(pred.gamma(), 0.8 / 0.8, 1e-12);
}

TEST(Predictor, LastNWindowShorterThanNAtStart)
{
    ModelInfo info = syntheticInfo();
    PredictorConfig cfg;
    cfg.strategy = PredictorStrategy::LastN;
    cfg.lastN = 3;
    SparseLatencyPredictor pred(info, cfg);
    pred.observe(1, 0.7);
    // One observation only: density 0.3 vs layer-1 baseline 0.6.
    EXPECT_NEAR(pred.gamma(), 0.5, 1e-12);
}

TEST(Predictor, GammaClamped)
{
    ModelInfo info = syntheticInfo();
    PredictorConfig cfg;
    cfg.strategy = PredictorStrategy::LastOne;
    SparseLatencyPredictor pred(info, cfg);
    pred.observe(3, 0.98); // density 0.02 vs baseline 0.8
    EXPECT_DOUBLE_EQ(pred.gamma(), cfg.gammaMin);
    pred.observe(3, 0.0); // density 1.0 vs 0.8 -> 1.25, within range
    EXPECT_NEAR(pred.gamma(), 1.25, 1e-12);
}

TEST(Predictor, AlphaScalesPrediction)
{
    ModelInfo info = syntheticInfo();
    PredictorConfig cfg;
    cfg.alpha = 0.5;
    SparseLatencyPredictor pred(info, cfg);
    EXPECT_DOUBLE_EQ(pred.predictRemaining(0), 0.5);
}

TEST(Predictor, ResetForgetsObservations)
{
    ModelInfo info = syntheticInfo();
    SparseLatencyPredictor pred(info, {});
    pred.observe(1, 0.1);
    EXPECT_NE(pred.gamma(), 1.0);
    pred.reset();
    EXPECT_DOUBLE_EQ(pred.gamma(), 1.0);
    EXPECT_EQ(pred.observations(), 0u);
}

TEST(Predictor, ObservingUnmonitoredLayerPanics)
{
    ModelInfo info = syntheticInfo();
    SparseLatencyPredictor pred(info, {});
    EXPECT_DEATH(pred.observe(2, 0.5), "baseline");
    EXPECT_DEATH(pred.observe(1, -0.5), "unmonitored");
}

TEST(Predictor, StrategyNames)
{
    EXPECT_EQ(toString(PredictorStrategy::AverageAll), "average-all");
    EXPECT_EQ(toString(PredictorStrategy::LastN), "last-n");
    EXPECT_EQ(toString(PredictorStrategy::LastOne), "last-one");
}

// --- DystaScheduler ---

TEST(Dysta, StaticScoreFormula)
{
    World w;
    w.addModel("m", {0.5, 0.5});
    DystaConfig cfg;
    cfg.beta = 0.5;
    cfg.dynamicLevel = false;
    DystaScheduler dysta(w.lut, cfg);
    dysta.reset();
    Request req = w.request(0, "m", 0.0, 10.0); // SLO_rel = 10 s
    dysta.onArrival(req, 0.0);
    // score = Lat + beta * (SLO - Lat) = 1 + 0.5 * 9 = 5.5.
    std::vector<Request> reqs = {req};
    // Static level: selection works and uses the frozen score.
    EXPECT_EQ(dysta.selectNext(view(reqs), 0.0), 0u);
}

TEST(Dysta, StaticLevelOrdersByScore)
{
    World w;
    w.addModel("short", {0.1});
    w.addModel("long", {2.0});
    DystaConfig cfg = dystaWithoutSparseConfig();
    DystaScheduler dysta(w.lut, cfg);
    dysta.reset();
    std::vector<Request> reqs = {w.request(0, "long", 0.0, 10.0),
                                 w.request(1, "short", 0.0, 10.0)};
    dysta.onArrival(reqs[0], 0.0);
    dysta.onArrival(reqs[1], 0.0);
    // short: 0.1 + 0.5*0.9 = 0.55; long: 2 + 0.5*18 = 11.
    EXPECT_EQ(dysta.selectNext(view(reqs), 0.0), 1u);
}

TEST(Dysta, DynamicScoreUsesPredictedRemaining)
{
    World w;
    w.addModel("a", {0.5, 0.5});
    w.addModel("b", {0.6, 0.3});
    DystaConfig cfg;
    cfg.eta = 0.0; // isolate the remaining-time term
    DystaScheduler dysta(w.lut, cfg);
    dysta.reset();
    std::vector<Request> reqs = {w.request(0, "a", 0.0),
                                 w.request(1, "b", 0.0)};
    dysta.onArrival(reqs[0], 0.0);
    dysta.onArrival(reqs[1], 0.0);
    // Estimated remaining: a = 1.0, b = 0.9.
    EXPECT_EQ(dysta.selectNext(view(reqs), 0.0), 1u);
}

TEST(Dysta, MonitoredSparsityRefinesEstimate)
{
    World w;
    // Both models identical on paper; request 0 turns out sparser
    // (faster) than the profile at runtime.
    w.addModel("a", {0.5, 0.5}, {0.5, 0.5});
    w.addModel("b", {0.5, 0.5}, {0.5, 0.5});
    DystaConfig cfg;
    cfg.eta = 0.0;
    DystaScheduler dysta(w.lut, cfg);
    dysta.reset();
    std::vector<Request> reqs = {w.request(0, "a", 0.0),
                                 w.request(1, "b", 0.0)};
    dysta.onArrival(reqs[0], 0.0);
    dysta.onArrival(reqs[1], 0.0);

    // Request 0 executed its first layer with much higher sparsity
    // than the profile: gamma < 1 -> predicted remaining < 0.5 of b.
    reqs[0].nextLayer = 1;
    reqs[0].executedTime = 0.5;
    dysta.onLayerComplete(reqs[0], 0.5, 0.8);

    reqs[1].nextLayer = 1;
    reqs[1].executedTime = 0.5;
    dysta.onLayerComplete(reqs[1], 1.0, 0.5); // exactly the profile

    EXPECT_EQ(dysta.selectNext(view(reqs), 1.0), 0u);
}

TEST(Dysta, UnmonitoredLayerLeavesGammaUntouched)
{
    World w;
    w.addModel("a", {0.5, 0.5}, {0.5, 0.5});
    DystaScheduler dysta(w.lut);
    dysta.reset();
    Request req = w.request(0, "a", 0.0);
    dysta.onArrival(req, 0.0);
    req.nextLayer = 1;
    // Sentinel: monitor captured nothing; must not crash or change
    // the estimate.
    dysta.onLayerComplete(req, 0.5, -1.0);
    std::vector<Request> reqs = {req};
    EXPECT_EQ(dysta.selectNext(view(reqs), 0.5), 0u);
}

TEST(Dysta, SlackTermPrioritizesUrgentRequests)
{
    World w;
    w.addModel("m", {0.5, 0.5});
    DystaConfig cfg;
    cfg.eta = 1.0;
    DystaScheduler dysta(w.lut, cfg);
    dysta.reset();
    // Same model; request 0 arrived much earlier => far less slack.
    std::vector<Request> reqs = {w.request(0, "m", 0.0, 3.0),
                                 w.request(1, "m", 2.5, 3.0)};
    dysta.onArrival(reqs[0], 0.0);
    dysta.onArrival(reqs[1], 2.5);
    EXPECT_EQ(dysta.selectNext(view(reqs), 2.5), 0u);
}

TEST(Dysta, PenaltyKeepsRunningRequestRunning)
{
    World w;
    w.addModel("m", {0.5, 0.5, 0.5, 0.5});
    DystaConfig cfg;
    cfg.eta = 1.0;
    DystaScheduler dysta(w.lut, cfg);
    dysta.reset();
    std::vector<Request> reqs = {w.request(0, "m", 0.0),
                                 w.request(1, "m", 0.0)};
    dysta.onArrival(reqs[0], 0.0);
    dysta.onArrival(reqs[1], 0.0);
    // Request 0 just ran a layer (wait 0); request 1 has waited.
    reqs[0].nextLayer = 1;
    reqs[0].executedTime = 0.5;
    reqs[0].lastRunEnd = 0.5;
    reqs[1].lastRunEnd = 0.0;
    // Remainings: 1.5 (started) vs 2.0 (fresh); both same deadline;
    // the started request wins on both remaining and penalty.
    EXPECT_EQ(dysta.selectNext(view(reqs), 0.5), 0u);
}

TEST(Dysta, NameReflectsAblation)
{
    World w;
    w.addModel("m", {0.5});
    DystaScheduler full(w.lut);
    EXPECT_EQ(full.name(), "Dysta");
    DystaScheduler ablated(w.lut, dystaWithoutSparseConfig());
    EXPECT_EQ(ablated.name(), "Dysta-w/o-sparse");
}

TEST(Dysta, TunedConfigsDifferPerScenario)
{
    EXPECT_GT(tunedDystaConfig(true).eta,
              tunedDystaConfig(false).eta);
}

TEST(Dysta, DuplicateArrivalPanics)
{
    World w;
    w.addModel("m", {0.5});
    DystaScheduler dysta(w.lut);
    dysta.reset();
    Request req = w.request(0, "m", 0.0);
    dysta.onArrival(req, 0.0);
    EXPECT_DEATH(dysta.onArrival(req, 0.0), "duplicate");
}

TEST(Dysta, CompletionClearsState)
{
    World w;
    w.addModel("m", {0.5});
    DystaScheduler dysta(w.lut);
    dysta.reset();
    Request req = w.request(0, "m", 0.0);
    dysta.onArrival(req, 0.0);
    dysta.onComplete(req, 0.5);
    // Re-arrival with the same id must now be legal.
    dysta.onArrival(req, 1.0);
    SUCCEED();
}

// --- Integration: the predictor must pay off ---

TEST(Dysta, BeatsFcfsOnAntt)
{
    World w;
    w.addModel("big", {0.5, 0.5, 0.5, 0.5});
    w.addModel("small", {0.05, 0.05});
    Rng rng(3);
    std::vector<Request> reqs;
    double t = 0.0;
    for (int i = 0; i < 80; ++i) {
        t += rng.exponential(1.0);
        reqs.push_back(
            w.request(i, i % 2 ? "big" : "small", t, 10.0));
    }
    DystaScheduler dysta(w.lut);
    FcfsScheduler fcfs;
    auto reqs_copy = reqs;
    SimConfig one = singleNodeSimConfig();
    double dysta_antt = runSingleNode(one, reqs, dysta).metrics.antt;
    double fcfs_antt = runSingleNode(one, reqs_copy, fcfs).metrics.antt;
    EXPECT_LT(dysta_antt, fcfs_antt);
}
