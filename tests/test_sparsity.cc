/**
 * @file
 * Unit tests for the sparsity module: patterns, weight sparsification
 * consequences (density, utilization, channel-selection bias), the
 * CNN activation generator and the attention-density generator.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "models/zoo.hh"
#include "sparsity/activation_model.hh"
#include "sparsity/attention_model.hh"
#include "sparsity/dataset.hh"
#include "sparsity/weight_sparsity.hh"
#include "util/stats.hh"

using namespace dysta;

// --- Patterns ---

TEST(Pattern, NamesAreCanonical)
{
    // Trace keys and reports spell patterns with these names.
    EXPECT_EQ(toString(SparsityPattern::Dense), "dense");
    EXPECT_EQ(toString(SparsityPattern::RandomPointwise), "random");
    EXPECT_EQ(toString(SparsityPattern::BlockNM), "block_nm");
    EXPECT_EQ(toString(SparsityPattern::ChannelWise), "channel");
}

TEST(Pattern, CnnPatternsExcludeDense)
{
    for (SparsityPattern p : cnnPatterns())
        EXPECT_NE(p, SparsityPattern::Dense);
    EXPECT_EQ(cnnPatterns().size(), 3u);
}

// --- SparsifiedModel ---

TEST(WeightSparsity, DenseKeepsEverything)
{
    SparsifiedModel m(makeMobileNetV1(), SparsityPattern::Dense, 0.0,
                      1);
    for (size_t l = 0; l < m.model().layers.size(); ++l) {
        EXPECT_DOUBLE_EQ(m.layerInfo(l).weightDensity, 1.0);
        EXPECT_DOUBLE_EQ(m.layerInfo(l).utilization, 1.0);
    }
    EXPECT_DOUBLE_EQ(m.avgWeightDensity(), 1.0);
}

TEST(WeightSparsity, BlockNmDensityIsExact)
{
    SparsifiedModel m(makeVgg16(), SparsityPattern::BlockNM, 0.75, 1);
    for (size_t l = 0; l < m.model().layers.size(); ++l)
        EXPECT_DOUBLE_EQ(m.layerInfo(l).weightDensity, 0.25);
}

TEST(WeightSparsity, RandomDensityNearTarget)
{
    SparsifiedModel m(makeResNet50(),
                      SparsityPattern::RandomPointwise, 0.6, 1);
    EXPECT_NEAR(m.avgWeightDensity(), 0.4, 0.03);
}

TEST(WeightSparsity, UtilizationOrderingByPattern)
{
    ModelDesc model = makeResNet50();
    SparsifiedModel rnd(model, SparsityPattern::RandomPointwise, 0.6,
                        1);
    SparsifiedModel nm(model, SparsityPattern::BlockNM, 0.6, 1);
    SparsifiedModel ch(model, SparsityPattern::ChannelWise, 0.6, 1);
    // Structured patterns keep the PE array busier.
    size_t l = 5;
    EXPECT_LT(rnd.layerInfo(l).utilization, nm.layerInfo(l).utilization);
    EXPECT_LT(nm.layerInfo(l).utilization, ch.layerInfo(l).utilization);
}

TEST(WeightSparsity, ChannelBiasGrowsWithRate)
{
    ModelDesc model = makeResNet50();
    SparsifiedModel light(model, SparsityPattern::ChannelWise, 0.5, 1);
    SparsifiedModel heavy(model, SparsityPattern::ChannelWise, 0.95,
                          1);
    double bias_light = 0.0;
    double bias_heavy = 0.0;
    size_t n = model.layers.size();
    for (size_t l = 0; l < n; ++l) {
        bias_light += light.layerInfo(l).keptChannelBias;
        bias_heavy += heavy.layerInfo(l).keptChannelBias;
    }
    const double layers = static_cast<double>(n);
    EXPECT_GT(bias_heavy / layers, bias_light / layers);
    EXPECT_GT(bias_heavy / layers, 1.1);
}

TEST(WeightSparsity, NonChannelPatternsHaveNoBias)
{
    SparsifiedModel m(makeVgg16(), SparsityPattern::RandomPointwise,
                      0.8, 1);
    for (size_t l = 0; l < m.model().layers.size(); ++l) {
        EXPECT_DOUBLE_EQ(m.layerInfo(l).keptChannelBias, 1.0);
        EXPECT_DOUBLE_EQ(m.layerInfo(l).channelNoiseSigma, 0.0);
    }
}

TEST(WeightSparsity, ValidMacFractionBounded)
{
    SparsifiedModel m(makeResNet50(), SparsityPattern::ChannelWise,
                      0.9, 1);
    Rng rng(3);
    for (size_t l = 0; l < m.model().layers.size(); ++l) {
        for (double d : {0.0, 0.3, 1.0}) {
            double f = m.validMacFraction(l, d, rng);
            EXPECT_GE(f, 0.0);
            EXPECT_LE(f, 1.0);
        }
    }
}

TEST(WeightSparsity, ValidMacFractionIndependentForRandom)
{
    SparsifiedModel m(makeVgg16(), SparsityPattern::RandomPointwise,
                      0.5, 1);
    Rng rng(3);
    size_t l = 2;
    double d_w = m.layerInfo(l).weightDensity;
    EXPECT_NEAR(m.validMacFraction(l, 0.6, rng), 0.6 * d_w, 1e-12);
}

TEST(WeightSparsity, DeterministicForSeed)
{
    SparsifiedModel a(makeResNet50(),
                      SparsityPattern::RandomPointwise, 0.6, 42);
    SparsifiedModel b(makeResNet50(),
                      SparsityPattern::RandomPointwise, 0.6, 42);
    for (size_t l = 0; l < a.model().layers.size(); ++l) {
        EXPECT_DOUBLE_EQ(a.layerInfo(l).weightDensity,
                         b.layerInfo(l).weightDensity);
    }
}

TEST(WeightSparsity, InvalidRateIsFatal)
{
    for (double rate : {1.0, -0.5, std::nan("")}) {
        EXPECT_EXIT(SparsifiedModel(makeVgg16(),
                                    SparsityPattern::RandomPointwise,
                                    rate, 1),
                    ::testing::ExitedWithCode(1), "rate must be in")
            << rate;
    }
}

// --- CNN activation model ---

TEST(ActivationModel, SparsityWithinBounds)
{
    ModelDesc model = makeResNet50();
    CnnActivationModel act(model, imagenetWithDarkProfile(), 5);
    Rng rng(9);
    for (int i = 0; i < 200; ++i) {
        CnnActivationSample s = act.sample(rng);
        ASSERT_EQ(s.outSparsity.size(), model.layers.size());
        for (double sp : s.outSparsity) {
            EXPECT_GE(sp, 0.0);
            EXPECT_LE(sp, 0.95);
        }
    }
}

TEST(ActivationModel, FirstLayerInputIsDense)
{
    CnnActivationModel act(makeVgg16(), imagenetProfile(), 5);
    Rng rng(9);
    CnnActivationSample s = act.sample(rng);
    EXPECT_DOUBLE_EQ(s.inputDensity(0), 1.0);
    EXPECT_DOUBLE_EQ(s.inputDensity(1), 1.0 - s.outSparsity[0]);
}

TEST(ActivationModel, DarkFractionMatchesProfile)
{
    DatasetProfile prof = imagenetWithDarkProfile();
    CnnActivationModel act(makeResNet50(), prof, 5);
    Rng rng(9);
    int dark = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        dark += act.sample(rng).dark;
    EXPECT_NEAR(static_cast<double>(dark) / n, prof.darkFraction,
                0.02);
}

TEST(ActivationModel, DarkSamplesAreSparser)
{
    CnnActivationModel act(makeResNet50(), imagenetWithDarkProfile(),
                           5);
    Rng rng(9);
    OnlineStats dark;
    OnlineStats normal;
    for (int i = 0; i < 4000; ++i) {
        CnnActivationSample s = act.sample(rng);
        (s.dark ? dark : normal).add(s.networkSparsity());
    }
    EXPECT_GT(dark.mean(), normal.mean());
}

TEST(ActivationModel, PureImagenetHasNoDarkSamples)
{
    CnnActivationModel act(makeResNet50(), imagenetProfile(), 5);
    Rng rng(9);
    for (int i = 0; i < 500; ++i)
        EXPECT_FALSE(act.sample(rng).dark);
}

TEST(ActivationModel, MeanProfileRisesWithDepth)
{
    CnnActivationModel act(makeVgg16(), imagenetProfile(), 5);
    const auto& means = act.layerMeans();
    // Average of the first three ReLU layers vs the last three conv
    // layers: depth raises sparsity.
    double early = (means[0] + means[1] + means[2]) / 3.0;
    double late = (means[10] + means[11] + means[12]) / 3.0;
    EXPECT_GT(late, early);
}

TEST(ActivationModel, Table2GainOrdering)
{
    // Architecture sensitivity used for Table 2 calibration.
    DatasetProfile prof = imagenetWithDarkProfile();
    CnnActivationModel google(makeGoogLeNet(), prof, 5);
    CnnActivationModel resnet(makeResNet50(), prof, 5);
    EXPECT_GT(google.dynamicityGain(), resnet.dynamicityGain());
}

TEST(ActivationModel, NetworkSparsityRelativeRangeOrdering)
{
    DatasetProfile prof = imagenetWithDarkProfile();
    auto rel_range = [&](const ModelDesc& m) {
        CnnActivationModel act(m, prof, 13);
        Rng rng(7);
        OnlineStats s;
        for (int i = 0; i < 1500; ++i)
            s.add(act.sample(rng).networkSparsity());
        return s.relativeRange();
    };
    double googlenet = rel_range(makeGoogLeNet());
    double resnet = rel_range(makeResNet50());
    // Table 2: GoogLeNet 28.3% vs ResNet-50 15.1%.
    EXPECT_GT(googlenet, resnet);
    EXPECT_NEAR(googlenet, 0.283, 0.06);
    EXPECT_NEAR(resnet, 0.151, 0.04);
}

// --- Attention model ---

TEST(AttentionModel, SequenceLengthWithinDatasetRange)
{
    DatasetProfile prof = squadProfile();
    AttentionModel attn(makeBertBase(), prof, 5);
    Rng rng(9);
    for (int i = 0; i < 500; ++i) {
        AttnSample s = attn.sample(rng);
        EXPECT_GE(s.seqLen, prof.seqMin);
        EXPECT_LE(s.seqLen, prof.seqMax);
    }
}

TEST(AttentionModel, DensityBoundsAndVectors)
{
    ModelDesc bert = makeBertBase();
    AttentionModel attn(bert, squadProfile(), 5);
    Rng rng(9);
    AttnSample s = attn.sample(rng);
    ASSERT_EQ(s.laySparsity.size(), bert.layers.size());
    ASSERT_EQ(s.maskDensity.size(), bert.layers.size());
    for (size_t l = 0; l < bert.layers.size(); ++l) {
        if (isAttentionStage(bert.layers[l].kind)) {
            EXPECT_GT(s.maskDensity[l], 0.0);
            EXPECT_LT(s.maskDensity[l], 1.0);
            EXPECT_NEAR(s.laySparsity[l], 1.0 - s.maskDensity[l],
                        1e-12);
        } else {
            EXPECT_DOUBLE_EQ(s.maskDensity[l], 1.0);
        }
    }
}

TEST(AttentionModel, ComplexityInUnitInterval)
{
    AttentionModel attn(makeGpt2Small(), glueProfile(), 5);
    Rng rng(9);
    for (int i = 0; i < 500; ++i) {
        double c = attn.sample(rng).complexity;
        EXPECT_GE(c, 0.0);
        EXPECT_LE(c, 1.0);
    }
}

TEST(AttentionModel, ComplexPromptsAreDenser)
{
    ModelDesc bert = makeBertBase();
    AttentionModel attn(bert, squadProfile(), 5);
    Rng rng(9);
    // Correlation between complexity and mean attention density.
    std::vector<double> complexity;
    std::vector<double> density;
    for (int i = 0; i < 2000; ++i) {
        AttnSample s = attn.sample(rng);
        double d = 0.0;
        int n = 0;
        for (size_t l = 0; l < bert.layers.size(); ++l) {
            if (isAttentionStage(bert.layers[l].kind)) {
                d += s.maskDensity[l];
                ++n;
            }
        }
        complexity.push_back(s.complexity);
        density.push_back(d / n);
    }
    EXPECT_GT(pearson(complexity, density), 0.8);
}

TEST(AttentionModel, CrossLayerSparsityHighlyCorrelated)
{
    // The Fig. 9 property the latency predictor depends on.
    ModelDesc bert = makeBertBase();
    AttentionModel attn(bert, squadProfile(), 5);
    Rng rng(9);
    std::vector<size_t> score_layers;
    for (size_t l = 0; l < bert.layers.size(); ++l) {
        if (bert.layers[l].kind == LayerKind::AttnScore)
            score_layers.push_back(l);
    }
    std::vector<std::vector<double>> series(score_layers.size());
    for (int i = 0; i < 1000; ++i) {
        AttnSample s = attn.sample(rng);
        for (size_t k = 0; k < score_layers.size(); ++k)
            series[k].push_back(s.laySparsity[score_layers[k]]);
    }
    auto corr = correlationMatrix(series);
    for (size_t i = 0; i < corr.size(); ++i) {
        for (size_t j = i + 1; j < corr.size(); ++j)
            EXPECT_GT(corr[i][j], 0.7);
    }
}

TEST(AttentionModel, RejectsCnnModels)
{
    EXPECT_EXIT(AttentionModel(makeResNet50(), squadProfile(), 5),
                ::testing::ExitedWithCode(1), "AttNN");
}

TEST(Dataset, DefaultProfilesRouteByModel)
{
    EXPECT_EQ(defaultProfileFor("bert").name, "squad");
    EXPECT_EQ(defaultProfileFor("gpt2").name, "glue");
    EXPECT_EQ(defaultProfileFor("bart").name, "glue");
    EXPECT_EQ(defaultProfileFor("ssd300").name, "coco");
    EXPECT_EQ(defaultProfileFor("resnet50").name,
              "imagenet+exdark+darkface");
}
