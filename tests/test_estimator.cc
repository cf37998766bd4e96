/**
 * @file
 * Tests for the LatencyEstimator layer: LUT-vs-oracle error bounds
 * on synthetic traces, DystaEstimator refinement from monitored
 * sparsity, EMA convergence toward ground truth as layers complete,
 * and the request-tracking lifecycle shared by all implementations.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/estimator.hh"
#include "test_helpers.hh"

using namespace dysta;
using dysta::test::World;

namespace {

/**
 * A model whose samples deviate +/- `spread` (relative) from the
 * nominal per-layer latency, with matching sparsity deviations:
 * sample 0 is denser and slower, sample 1 sparser and faster.
 */
World
deviatingWorld(double spread, size_t layers = 6,
               double nominal_latency = 0.1,
               double nominal_sparsity = 0.5)
{
    World w;
    std::vector<SampleTrace> samples;
    for (double dir : {+1.0, -1.0}) {
        std::vector<double> lat(layers,
                                nominal_latency * (1.0 + dir * spread));
        // Denser activations (lower sparsity) mean more surviving
        // work, hence the slower sample.
        std::vector<double> sp(layers,
                               nominal_sparsity * (1.0 - dir * spread));
        samples.push_back(test::trace(lat, sp));
    }
    w.addModelSamples("dev", std::move(samples));
    return w;
}

} // namespace

// --- LutEstimator ----------------------------------------------------------

TEST(LutEstimator, MatchesProfiledAverages)
{
    World w;
    w.addModel("a", {0.1, 0.2, 0.3}, {0.5, 0.5, 0.5});
    Request req = w.request(0, "a", 0.0);

    LutEstimator lut(w.lut);
    EXPECT_DOUBLE_EQ(lut.isolated(req), 0.6);
    EXPECT_DOUBLE_EQ(lut.remaining(req), 0.6);
    req.nextLayer = 1;
    EXPECT_DOUBLE_EQ(lut.remaining(req), 0.5);
    req.nextLayer = 3;
    EXPECT_DOUBLE_EQ(lut.remaining(req), 0.0);
}

TEST(LutEstimator, QueriesWorkWithAndWithoutTracking)
{
    World w;
    w.addModel("a", {0.1, 0.2}, {0.5, 0.5});
    Request req = w.request(0, "a", 0.0);

    LutEstimator lut(w.lut);
    double untracked = lut.remaining(req);
    lut.admit(req);
    EXPECT_DOUBLE_EQ(lut.remaining(req), untracked);
    lut.release(req);
    EXPECT_DOUBLE_EQ(lut.remaining(req), untracked);
}

TEST(LutEstimator, ErrorAgainstOracleBoundedBySampleSpread)
{
    // LUT averages over a pool whose samples deviate +/- 20% from
    // nominal: the LUT error against the ground truth of any single
    // sample is bounded by that 20% of the estimate itself, at every
    // progress point.
    const double spread = 0.2;
    World w = deviatingWorld(spread);

    LutEstimator lut(w.lut);
    OracleEstimator oracle;
    for (size_t sample = 0; sample < 2; ++sample) {
        Request req = w.request(0, "dev", 0.0, 10.0, sample);
        for (size_t l = 0; l < req.layerCount(); ++l) {
            req.nextLayer = l;
            double truth = oracle.remaining(req);
            double estimate = lut.remaining(req);
            double err = std::abs(estimate - truth);
            EXPECT_LE(err, spread * estimate + 1e-12)
                << "sample " << sample << " layer " << l;
        }
    }
}

// --- OracleEstimator -------------------------------------------------------

TEST(OracleEstimator, ReadsGroundTruth)
{
    World w;
    w.addModel("a", {0.1, 0.4}, {0.5, 0.5});
    Request req = w.request(0, "a", 0.0);

    OracleEstimator oracle;
    EXPECT_DOUBLE_EQ(oracle.isolated(req), 0.5);
    EXPECT_DOUBLE_EQ(oracle.remaining(req), 0.5);
    req.nextLayer = 1;
    EXPECT_DOUBLE_EQ(oracle.remaining(req), 0.4);
}

// --- DystaEstimator --------------------------------------------------------

TEST(DystaEstimator, RefinementBeatsLutOnDeviatingSample)
{
    // Serve the consistently-slower (denser) sample: after observing
    // its monitored sparsity the refined estimate must sit strictly
    // between... closer to the oracle than the raw LUT average.
    const double spread = 0.2;
    World w = deviatingWorld(spread);
    Request req = w.request(0, "dev", 0.0, 10.0, /*sample=*/0);

    DystaEstimator dysta(w.lut);
    OracleEstimator oracle;
    LutEstimator lut(w.lut);
    dysta.admit(req);

    // Execute two layers, feeding the monitor readings.
    for (size_t l = 0; l < 2; ++l) {
        double ms = req.trace->layers[l].monitoredSparsity;
        req.nextLayer = l + 1;
        dysta.observe(req, ms);
    }

    double truth = oracle.remaining(req);
    double lut_err = std::abs(lut.remaining(req) - truth);
    double refined_err = std::abs(dysta.remaining(req) - truth);
    EXPECT_LT(refined_err, lut_err);
    // Denser than profile: gamma must rise above 1.
    EXPECT_GT(dysta.gamma(req), 1.0);
}

TEST(DystaEstimator, UnrefinedPinsGammaToOne)
{
    World w = deviatingWorld(0.2);
    Request req = w.request(0, "dev", 0.0, 10.0, 0);

    DystaEstimator frozen(w.lut, {}, /*refine=*/false);
    LutEstimator lut(w.lut);
    frozen.admit(req);
    double ms = req.trace->layers[0].monitoredSparsity;
    req.nextLayer = 1;
    frozen.observe(req, ms);

    EXPECT_DOUBLE_EQ(frozen.gamma(req), 1.0);
    EXPECT_DOUBLE_EQ(frozen.remaining(req), lut.remaining(req));
}

TEST(DystaEstimator, ReleaseFallsBackToLut)
{
    World w = deviatingWorld(0.2);
    Request req = w.request(0, "dev", 0.0, 10.0, 0);

    DystaEstimator dysta(w.lut);
    LutEstimator lut(w.lut);
    dysta.admit(req);
    double ms = req.trace->layers[0].monitoredSparsity;
    req.nextLayer = 1;
    dysta.observe(req, ms);
    EXPECT_NE(dysta.remaining(req), lut.remaining(req));

    dysta.release(req);
    EXPECT_FALSE(dysta.tracks(req));
    EXPECT_DOUBLE_EQ(dysta.remaining(req), lut.remaining(req));
}

TEST(DystaEstimator, IgnoresUnmonitoredLayers)
{
    World w = deviatingWorld(0.2);
    Request req = w.request(0, "dev", 0.0, 10.0, 0);

    DystaEstimator dysta(w.lut);
    dysta.admit(req);
    req.nextLayer = 1;
    dysta.observe(req, -1.0); // monitor missed the layer
    EXPECT_DOUBLE_EQ(dysta.gamma(req), 1.0);
}

// --- EMA convergence -------------------------------------------------------

TEST(DystaEstimator, EmaConvergesTowardGroundTruthAsLayersComplete)
{
    // The served sample is consistently denser (slower) than the
    // profile; with an EMA sparsity coefficient, the remaining-
    // latency error relative to ground truth must shrink as more
    // layers are observed, and end far below the initial error.
    const double spread = 0.25;
    const size_t layers = 12;
    World w = deviatingWorld(spread, layers);
    Request req = w.request(0, "dev", 0.0, 10.0, /*sample=*/0);

    PredictorConfig pcfg;
    pcfg.strategy = PredictorStrategy::Ema;
    pcfg.emaWeight = 0.4;
    DystaEstimator ema(w.lut, pcfg);
    OracleEstimator oracle;
    ema.admit(req);

    auto relErr = [&]() {
        double truth = oracle.remaining(req);
        return std::abs(ema.remaining(req) - truth) / truth;
    };

    // The LUT prior underestimates the slow sample by exactly
    // spread/(1+spread) in relative terms.
    double initial_err = relErr();
    EXPECT_NEAR(initial_err, spread / (1.0 + spread), 1e-9);

    double prev_err = initial_err;
    for (size_t l = 0; l + 1 < layers; ++l) {
        double ms = req.trace->layers[l].monitoredSparsity;
        req.nextLayer = l + 1;
        ema.observe(req, ms);
        double err = relErr();
        EXPECT_LE(err, prev_err + 1e-9)
            << "EMA error must not grow on a consistent trace "
               "(layer "
            << l << ")";
        prev_err = err;
    }
    EXPECT_LT(prev_err, 0.25 * initial_err);

    // gamma approaches the true density ratio of the sample.
    double true_ratio = (1.0 - 0.5 * (1.0 - spread)) / (1.0 - 0.5);
    EXPECT_NEAR(ema.gamma(req), true_ratio, 0.05);
}

TEST(SparseLatencyPredictor, EmaWeightValidation)
{
    World w = deviatingWorld(0.1);
    const ModelInfo& info = w.lut.lookup("dev", SparsityPattern::Dense);
    PredictorConfig bad;
    bad.strategy = PredictorStrategy::Ema;
    bad.emaWeight = 0.0;
    EXPECT_EXIT(SparseLatencyPredictor(info, bad),
                ::testing::ExitedWithCode(1), "emaWeight");
}
