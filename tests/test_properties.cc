/**
 * @file
 * Property-style parameterized sweeps: invariants that must hold for
 * every (model, pattern) pair on the accelerator models, for every
 * predictor strategy, and for the Oracle-vs-Dysta dominance across
 * seeds. These are the broad nets behind the targeted unit tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "accel/eyeriss_v2.hh"
#include "accel/sanger.hh"
#include "core/latency_predictor.hh"
#include "exp/experiments.hh"
#include "models/zoo.hh"
#include "trace/profiler.hh"
#include "util/rng.hh"
#include "util/stats.hh"

using namespace dysta;

// --- Every CNN model x pattern on Eyeriss-V2 ---

using CnnPoint = std::tuple<std::string, SparsityPattern>;

class CnnAccelSweep : public ::testing::TestWithParam<CnnPoint>
{
  protected:
    ModelDesc model = makeModelByName(std::get<0>(GetParam()));
    SparsityPattern pattern = std::get<1>(GetParam());
    EyerissV2Model accel;
};

TEST_P(CnnAccelSweep, ProfilesCleanly)
{
    ProfileConfig cfg;
    cfg.numSamples = 12;
    TraceSet set = profileCnn(model, pattern,
                              defaultProfileFor(model.name), accel,
                              cfg);
    ASSERT_EQ(set.size(), 12u);
    for (const auto& sample : set.all()) {
        EXPECT_GT(sample.totalLatency, 0.0);
        EXPECT_TRUE(std::isfinite(sample.totalLatency));
        for (const auto& layer : sample.layers) {
            EXPECT_GT(layer.latency, 0.0);
            if (layer.monitored()) {
                EXPECT_GE(layer.monitoredSparsity, 0.0);
                EXPECT_LE(layer.monitoredSparsity, 1.0);
            }
        }
    }
}

TEST_P(CnnAccelSweep, HigherPruningRateNeverSlower)
{
    // Average isolated latency must be non-increasing in the weight
    // sparsity rate (zero skipping can only help in this model).
    ProfileConfig light_cfg;
    light_cfg.numSamples = 15;
    light_cfg.cnnSparsityRate = 0.3;
    ProfileConfig heavy_cfg = light_cfg;
    heavy_cfg.cnnSparsityRate = 0.8;
    TraceSet light = profileCnn(model, pattern,
                                defaultProfileFor(model.name), accel,
                                light_cfg);
    TraceSet heavy = profileCnn(model, pattern,
                                defaultProfileFor(model.name), accel,
                                heavy_cfg);
    EXPECT_LE(heavy.avgTotalLatency(),
              light.avgTotalLatency() * 1.001);
}

TEST_P(CnnAccelSweep, LutRemainingMatchesAvgLatency)
{
    ProfileConfig cfg;
    cfg.numSamples = 10;
    TraceSet set = profileCnn(model, pattern,
                              defaultProfileFor(model.name), accel,
                              cfg);
    ModelInfoLut lut;
    lut.addFromTrace(set);
    const ModelInfo& info = lut.lookup(model.name, pattern);
    EXPECT_NEAR(info.estRemaining(0), info.avgLatency,
                1e-9 * info.avgLatency);
    // Suffix sums are monotone non-increasing.
    for (size_t l = 1; l < info.remainingFrom.size(); ++l)
        EXPECT_LE(info.remainingFrom[l], info.remainingFrom[l - 1]);
}

std::vector<CnnPoint>
cnnPoints()
{
    std::vector<CnnPoint> points;
    for (const char* name :
         {"resnet50", "vgg16", "mobilenet", "ssd300", "googlenet",
          "inceptionv3"}) {
        for (SparsityPattern p : cnnPatterns())
            points.push_back({name, p});
    }
    return points;
}

INSTANTIATE_TEST_SUITE_P(
    AllCnnModels, CnnAccelSweep, ::testing::ValuesIn(cnnPoints()),
    [](const ::testing::TestParamInfo<CnnPoint>& point) {
        return std::get<0>(point.param) + "_" +
               toString(std::get<1>(point.param));
    });

// --- Every AttNN model on Sanger ---

class AttnAccelSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AttnAccelSweep, ProfilesCleanlyAndSeqLenDominatesLatency)
{
    ModelDesc model = makeModelByName(GetParam());
    SangerModel accel;
    ProfileConfig cfg;
    cfg.numSamples = 60;
    TraceSet set = profileAttn(model, defaultProfileFor(GetParam()),
                               accel, cfg);
    std::vector<double> seq;
    std::vector<double> lat;
    for (const auto& sample : set.all()) {
        EXPECT_GT(sample.totalLatency, 0.0);
        seq.push_back(static_cast<double>(sample.seqLen));
        lat.push_back(sample.totalLatency);
    }
    // Longer prompts cost more; correlation must be strong.
    EXPECT_GT(pearson(seq, lat), 0.9);
}

INSTANTIATE_TEST_SUITE_P(AllAttnModels, AttnAccelSweep,
                         ::testing::Values("bert", "gpt2", "bart"));

// --- Predictor strategies ---

class PredictorStrategySweep
    : public ::testing::TestWithParam<PredictorStrategy>
{
  protected:
    ModelInfo
    info()
    {
        ModelInfo i;
        i.model = "m";
        i.avgLayerLatency = {0.1, 0.1, 0.1};
        i.avgLayerSparsity = {0.5, 0.5, 0.5};
        i.avgNetworkSparsity = 0.5;
        i.avgLatency = 0.3;
        i.remainingFrom = {0.3, 0.2, 0.1, 0.0};
        return i;
    }
};

TEST_P(PredictorStrategySweep, NeutralObservationKeepsGammaOne)
{
    ModelInfo i = info();
    PredictorConfig cfg;
    cfg.strategy = GetParam();
    SparseLatencyPredictor pred(i, cfg);
    pred.observe(0, 0.5); // exactly the profile average
    EXPECT_NEAR(pred.gamma(), 1.0, 1e-12);
}

TEST_P(PredictorStrategySweep, SparserThanProfileLowersEstimate)
{
    ModelInfo i = info();
    PredictorConfig cfg;
    cfg.strategy = GetParam();
    SparseLatencyPredictor pred(i, cfg);
    pred.observe(0, 0.8);
    EXPECT_LT(pred.gamma(), 1.0);
    EXPECT_LT(pred.predictRemaining(1), i.estRemaining(1));
}

TEST_P(PredictorStrategySweep, DenserThanProfileRaisesEstimate)
{
    ModelInfo i = info();
    PredictorConfig cfg;
    cfg.strategy = GetParam();
    SparseLatencyPredictor pred(i, cfg);
    pred.observe(0, 0.2);
    EXPECT_GT(pred.gamma(), 1.0);
    EXPECT_GT(pred.predictRemaining(1), i.estRemaining(1));
}

TEST_P(PredictorStrategySweep, GammaStaysWithinClamps)
{
    ModelInfo i = info();
    PredictorConfig cfg;
    cfg.strategy = GetParam();
    SparseLatencyPredictor pred(i, cfg);
    for (double s : {0.0, 0.2, 0.5, 0.9, 0.95}) {
        pred.observe(1, s);
        EXPECT_GE(pred.gamma(), cfg.gammaMin);
        EXPECT_LE(pred.gamma(), cfg.gammaMax);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PredictorStrategySweep,
    ::testing::Values(PredictorStrategy::AverageAll,
                      PredictorStrategy::LastN,
                      PredictorStrategy::LastOne),
    [](const ::testing::TestParamInfo<PredictorStrategy>& point) {
        std::string name = toString(point.param);
        for (char& c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// --- Predictor running state vs a recompute over the history ---

namespace {

/**
 * gamma() recomputed from the full observation history, folding in
 * arrival order and clamping once at the end: the definition the
 * predictor's running state must reproduce bit for bit.
 */
double
historyGamma(const ModelInfo& info, const PredictorConfig& cfg,
             const std::vector<size_t>& layers,
             const std::vector<double>& sparsities)
{
    if (layers.empty())
        return 1.0;
    auto density = [](double s) { return std::clamp(1.0 - s, 1e-3, 1.0); };
    auto clamp = [&](double g) {
        return std::clamp(g, cfg.gammaMin, cfg.gammaMax);
    };
    double last_base = density(info.avgLayerSparsity[layers.back()]);
    switch (cfg.strategy) {
      case PredictorStrategy::AverageAll: {
        double obs = 0.0;
        for (double s : sparsities)
            obs += density(s);
        obs /= static_cast<double>(sparsities.size());
        return clamp(obs / density(info.avgNetworkSparsity));
      }
      case PredictorStrategy::LastN: {
        size_t n = std::min<size_t>(static_cast<size_t>(cfg.lastN),
                                    sparsities.size());
        double obs = 0.0;
        for (size_t k = sparsities.size() - n; k < sparsities.size(); ++k)
            obs += density(sparsities[k]);
        return clamp(obs / static_cast<double>(n) / last_base);
      }
      case PredictorStrategy::LastOne:
        return clamp(density(sparsities.back()) / last_base);
      case PredictorStrategy::Ema: {
        double g = 1.0;
        for (size_t k = 0; k < layers.size(); ++k) {
            double ratio = density(sparsities[k]) /
                           density(info.avgLayerSparsity[layers[k]]);
            g = (1.0 - cfg.emaWeight) * g + cfg.emaWeight * ratio;
        }
        return clamp(g);
      }
    }
    return -1.0;
}

uint64_t
bitsOf(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

} // namespace

TEST(PredictorRunningState, GammaMatchesHistoryRecomputeBitForBit)
{
    const PredictorStrategy strategies[] = {
        PredictorStrategy::AverageAll, PredictorStrategy::LastN,
        PredictorStrategy::LastOne, PredictorStrategy::Ema};
    for (PredictorStrategy strategy : strategies) {
        for (uint64_t seed = 1; seed <= 20; ++seed) {
            Rng rng(seed);
            ModelInfo info;
            info.model = "m";
            for (int l = 0; l < 16; ++l)
                info.avgLayerSparsity.push_back(rng.uniform(0.0, 0.999));
            info.avgNetworkSparsity = rng.uniform(0.0, 0.999);
            info.remainingFrom.assign(17, 0.0);
            for (int l = 15; l >= 0; --l)
                info.remainingFrom[l] =
                    info.remainingFrom[l + 1] + rng.uniform(1e-4, 1e-2);
            PredictorConfig cfg;
            cfg.strategy = strategy;
            cfg.alpha = rng.uniform(0.5, 2.0);
            cfg.lastN = static_cast<int>(rng.uniformInt(1, 6));
            cfg.emaWeight = rng.uniform(0.05, 1.0);
            // A narrow clamp range, so an EMA that strays outside it
            // and comes back tells a clamp-on-read from a clamp-in-fold.
            cfg.gammaMin = rng.uniform(0.3, 0.9);
            cfg.gammaMax = rng.uniform(1.1, 3.0);
            SparseLatencyPredictor pred(info, cfg);
            // Every remaining-latency prediction reads the same gamma
            // as the recompute, bit for bit.
            auto expectPredictions = [&](double gamma) {
                for (size_t next = 0; next <= 17; ++next)
                    ASSERT_EQ(bitsOf(pred.predictRemaining(next)),
                              bitsOf(cfg.alpha * gamma *
                                     info.estRemaining(next)))
                        << toString(strategy) << " seed " << seed
                        << " next layer " << next;
            };

            // Two histories across a reset(): the second must not see
            // the first.
            for (int round = 0; round < 2; ++round) {
                std::vector<size_t> layers;
                std::vector<double> sparsities;
                EXPECT_EQ(bitsOf(pred.gamma()), bitsOf(1.0));
                expectPredictions(1.0);
                int steps = static_cast<int>(rng.uniformInt(1, 40));
                for (int k = 0; k < steps; ++k) {
                    auto layer = static_cast<size_t>(rng.uniformInt(
                        0, static_cast<int64_t>(
                               info.avgLayerSparsity.size()) - 1));
                    double sparsity = rng.uniform(0.0, 1.0);
                    pred.observe(layer, sparsity);
                    layers.push_back(layer);
                    sparsities.push_back(sparsity);
                    ASSERT_EQ(pred.observations(), layers.size());
                    double gamma =
                        historyGamma(info, cfg, layers, sparsities);
                    ASSERT_EQ(bitsOf(pred.gamma()), bitsOf(gamma))
                        << toString(strategy) << " seed " << seed
                        << " round " << round << " step " << k;
                    expectPredictions(gamma);
                }
                pred.reset();
                EXPECT_EQ(pred.observations(), 0u);
            }
        }
    }
}

// --- Oracle dominance across seeds ---

class OracleDominance : public ::testing::TestWithParam<uint64_t>
{
  protected:
    static BenchContext&
    ctx()
    {
        static std::unique_ptr<BenchContext> instance = [] {
            BenchSetup setup;
            setup.samplesPerModel = 60;
            setup.includeCnn = false;
            return makeBenchContext(setup);
        }();
        return *instance;
    }
};

TEST_P(OracleDominance, OracleAnttNeverWorseThanDysta)
{
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 30.0;
    wl.numRequests = 300;
    wl.seed = GetParam();
    auto oracle = makeSchedulerByName("Oracle", ctx(), wl.kind);
    auto dysta = makeSchedulerByName("Dysta", ctx(), wl.kind);
    double oracle_antt = runOne(ctx(), wl, *oracle).metrics.antt;
    double dysta_antt = runOne(ctx(), wl, *dysta).metrics.antt;
    // Perfect information bounds the predictor from below (small
    // tolerance: the score is a heuristic, not provably optimal).
    EXPECT_LE(oracle_antt, dysta_antt * 1.05) << "seed " << GetParam();
}

TEST_P(OracleDominance, DystaAnttNeverWorseThanLutSjf)
{
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 30.0;
    wl.numRequests = 300;
    wl.seed = GetParam();
    auto sjf = makeSchedulerByName("SJF", ctx(), wl.kind);
    auto dysta = makeSchedulerByName("Dysta", ctx(), wl.kind);
    double sjf_antt = runOne(ctx(), wl, *sjf).metrics.antt;
    double dysta_antt = runOne(ctx(), wl, *dysta).metrics.antt;
    EXPECT_LE(dysta_antt, sjf_antt * 1.05) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleDominance,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));
