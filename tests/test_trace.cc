/**
 * @file
 * Unit tests for the Phase-1 trace infrastructure: sample records,
 * trace-set statistics with conditional monitoring and the profiler
 * drivers; plus the ModelInfoLut built on top.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/model_info.hh"
#include "models/zoo.hh"
#include "trace/profiler.hh"
#include "trace/trace.hh"
#include "workload/workload.hh"

using namespace dysta;

namespace {

SampleTrace
makeSample(std::initializer_list<double> lats,
           std::initializer_list<double> sparsities)
{
    SampleTrace s;
    auto it = sparsities.begin();
    for (double lat : lats) {
        s.layers.push_back({lat, *it++});
    }
    s.finalize();
    return s;
}

TraceSet
tinySet()
{
    TraceSet set("toy", ModelFamily::CNN,
                 SparsityPattern::RandomPointwise);
    set.add(makeSample({0.1, 0.2, 0.3}, {0.5, -1.0, 0.7}));
    set.add(makeSample({0.3, 0.2, 0.1}, {0.3, -1.0, 0.5}));
    return set;
}

} // namespace

TEST(SampleTrace, FinalizeComputesAggregates)
{
    SampleTrace s = makeSample({0.1, 0.2, 0.3}, {0.4, 0.6, 0.8});
    EXPECT_NEAR(s.totalLatency, 0.6, 1e-12);
    EXPECT_NEAR(s.avgSparsity, 0.6, 1e-12);
}

TEST(SampleTrace, FinalizeSkipsUnmonitoredLayers)
{
    SampleTrace s = makeSample({0.1, 0.2}, {0.4, -1.0});
    EXPECT_NEAR(s.avgSparsity, 0.4, 1e-12);
    EXPECT_FALSE(s.layers[1].monitored());
    EXPECT_TRUE(s.layers[0].monitored());
}

TEST(TraceSet, StatsAreSampleAverages)
{
    TraceSet set = tinySet();
    EXPECT_EQ(set.size(), 2u);
    EXPECT_EQ(set.layerCount(), 3u);
    EXPECT_NEAR(set.avgTotalLatency(), 0.6, 1e-12);
    EXPECT_NEAR(set.avgLayerLatency()[0], 0.2, 1e-12);
    EXPECT_NEAR(set.avgLayerLatency()[2], 0.2, 1e-12);
    EXPECT_NEAR(set.avgLayerSparsity()[0], 0.4, 1e-12);
    // Unmonitored layer keeps the sentinel.
    EXPECT_LT(set.avgLayerSparsity()[1], 0.0);
}

TEST(SampleTrace, PrefixSumsMatchNaiveRemaining)
{
    // Awkward magnitudes so float error would show if the prefix
    // subtraction diverged meaningfully from the naive tail sum.
    SampleTrace s = makeSample(
        {1e-3, 3.7e-5, 0.25, 9.1e-4, 1e-6, 0.125, 2.3e-2},
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7});
    ASSERT_EQ(s.cumLatency.size(), s.layers.size() + 1);
    EXPECT_DOUBLE_EQ(s.totalLatency, s.cumLatency.back());
    for (size_t next = 0; next <= s.layers.size() + 1; ++next) {
        double naive = 0.0;
        for (size_t l = next; l < s.layers.size(); ++l)
            naive += s.layers[l].latency;
        EXPECT_NEAR(s.remainingFrom(next), naive,
                    1e-12 * (1.0 + naive))
            << "next layer " << next;
    }
    EXPECT_DOUBLE_EQ(s.remainingFrom(0), s.totalLatency);
    EXPECT_DOUBLE_EQ(s.remainingFrom(s.layers.size()), 0.0);
}

TEST(SampleTrace, RemainingFallsBackWithoutFinalize)
{
    SampleTrace s;
    s.layers.push_back({0.25, 0.5});
    s.layers.push_back({0.5, 0.5});
    // No finalize(): no prefix array, the direct sum must kick in.
    ASSERT_TRUE(s.cumLatency.empty());
    EXPECT_DOUBLE_EQ(s.remainingFrom(0), 0.75);
    EXPECT_DOUBLE_EQ(s.remainingFrom(1), 0.5);
}

TEST(SampleTrace, RefinalizeAfterEditRebuildsPrefix)
{
    SampleTrace s = makeSample({0.1, 0.2}, {0.5, 0.5});
    s.layers[1].latency = 0.4;
    s.finalize();
    EXPECT_DOUBLE_EQ(s.totalLatency, 0.5);
    EXPECT_DOUBLE_EQ(s.totalLatency, s.cumLatency.back());
    EXPECT_DOUBLE_EQ(s.remainingFrom(1), 0.4);
}

TEST(TraceSet, KeyFormat)
{
    TraceSet set = tinySet();
    EXPECT_EQ(set.key(), "toy/random");
    EXPECT_EQ(TraceSet::makeKey("bert", SparsityPattern::Dense),
              "bert/dense");
}

TEST(TraceSet, InconsistentLayerCountPanics)
{
    TraceSet set = tinySet();
    EXPECT_DEATH(set.add(makeSample({0.1}, {0.5})),
                 "inconsistent layer count");
}

TEST(Profiler, CnnTraceShapeAndDeterminism)
{
    ModelDesc model = makeMobileNetV1();
    EyerissV2Model accel;
    ProfileConfig cfg;
    cfg.numSamples = 20;
    cfg.seed = 77;
    TraceSet a = profileCnn(model, SparsityPattern::BlockNM,
                            imagenetWithDarkProfile(), accel, cfg);
    TraceSet b = profileCnn(model, SparsityPattern::BlockNM,
                            imagenetWithDarkProfile(), accel, cfg);
    ASSERT_EQ(a.size(), 20u);
    EXPECT_EQ(a.layerCount(), model.layers.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.sample(i).totalLatency,
                         b.sample(i).totalLatency);
    }
}

TEST(Profiler, SeedChangesTraces)
{
    ModelDesc model = makeMobileNetV1();
    EyerissV2Model accel;
    ProfileConfig cfg_a;
    cfg_a.numSamples = 10;
    cfg_a.seed = 1;
    ProfileConfig cfg_b = cfg_a;
    cfg_b.seed = 2;
    TraceSet a = profileCnn(model, SparsityPattern::BlockNM,
                            imagenetWithDarkProfile(), accel, cfg_a);
    TraceSet b = profileCnn(model, SparsityPattern::BlockNM,
                            imagenetWithDarkProfile(), accel, cfg_b);
    int equal = 0;
    for (size_t i = 0; i < a.size(); ++i)
        equal += a.sample(i).totalLatency == b.sample(i).totalLatency;
    EXPECT_LT(equal, 2);
}

TEST(Profiler, AttnTraceRecordsSeqLen)
{
    ModelDesc bert = makeBertBase();
    SangerModel accel;
    ProfileConfig cfg;
    cfg.numSamples = 15;
    TraceSet set = profileAttn(bert, squadProfile(), accel, cfg);
    for (const auto& s : set.all()) {
        EXPECT_GE(s.seqLen, squadProfile().seqMin);
        EXPECT_LE(s.seqLen, squadProfile().seqMax);
    }
}

TEST(Profiler, FamilyMismatchIsFatal)
{
    EyerissV2Model eyeriss;
    SangerModel sanger;
    ProfileConfig cfg;
    cfg.numSamples = 2;
    EXPECT_EXIT(profileCnn(makeBertBase(),
                           SparsityPattern::RandomPointwise,
                           imagenetProfile(), eyeriss, cfg),
                ::testing::ExitedWithCode(1), "not a CNN");
    EXPECT_EXIT(profileAttn(makeResNet50(), squadProfile(), sanger,
                            cfg),
                ::testing::ExitedWithCode(1), "not an AttNN");
}

TEST(Profiler, ProfileModelDispatchesByFamily)
{
    EyerissV2Model eyeriss;
    SangerModel sanger;
    ProfileConfig cfg;
    cfg.numSamples = 5;
    TraceSet cnn = profileModel(makeMobileNetV1(),
                                SparsityPattern::ChannelWise, eyeriss,
                                sanger, cfg);
    EXPECT_EQ(cnn.family(), ModelFamily::CNN);
    EXPECT_EQ(cnn.pattern(), SparsityPattern::ChannelWise);
    TraceSet attn = profileModel(makeGpt2Small(),
                                 SparsityPattern::ChannelWise, eyeriss,
                                 sanger, cfg);
    EXPECT_EQ(attn.family(), ModelFamily::AttNN);
    EXPECT_EQ(attn.pattern(), SparsityPattern::Dense);
}

// --- ModelInfoLut ---

TEST(ModelInfoLut, SuffixSumsAndAverages)
{
    ModelInfoLut lut;
    lut.addFromTrace(tinySet());
    const ModelInfo& info =
        lut.lookup("toy", SparsityPattern::RandomPointwise);

    EXPECT_NEAR(info.avgLatency, 0.6, 1e-12);
    ASSERT_EQ(info.remainingFrom.size(), 4u);
    EXPECT_NEAR(info.remainingFrom[0], 0.6, 1e-12);
    EXPECT_NEAR(info.remainingFrom[1], 0.4, 1e-12);
    EXPECT_NEAR(info.remainingFrom[3], 0.0, 1e-12);
    EXPECT_NEAR(info.estRemaining(1), 0.4, 1e-12);
    EXPECT_NEAR(info.estRemaining(3), 0.0, 1e-12);
    EXPECT_NEAR(info.estRemaining(99), 0.0, 1e-12);
}

TEST(ModelInfoLut, NetworkSparsityIgnoresUnmonitored)
{
    ModelInfoLut lut;
    lut.addFromTrace(tinySet());
    const ModelInfo& info =
        lut.lookup("toy", SparsityPattern::RandomPointwise);
    // Monitored layers average 0.4 and 0.6 -> 0.5.
    EXPECT_NEAR(info.avgNetworkSparsity, 0.5, 1e-12);
}

TEST(ModelInfoLut, ContainsAndMissingLookup)
{
    ModelInfoLut lut;
    lut.addFromTrace(tinySet());
    EXPECT_TRUE(lut.contains("toy", SparsityPattern::RandomPointwise));
    EXPECT_FALSE(lut.contains("toy", SparsityPattern::BlockNM));
    EXPECT_EXIT(lut.lookup("toy", SparsityPattern::BlockNM),
                ::testing::ExitedWithCode(1), "no entry");
}

TEST(ModelInfoLut, EmptyTraceSetIsFatal)
{
    ModelInfoLut lut;
    TraceSet empty("x", ModelFamily::CNN, SparsityPattern::Dense);
    EXPECT_EXIT(lut.addFromTrace(empty), ::testing::ExitedWithCode(1),
                "empty trace set");
}

// --- interned ModelKeys -----------------------------------------------------

namespace {

/** A one-sample set of `layers` layers for (model, pattern). */
TraceSet
namedSet(const std::string& model, SparsityPattern pattern,
         size_t layers = 2)
{
    TraceSet set(model, ModelFamily::CNN, pattern);
    SampleTrace s;
    for (size_t l = 0; l < layers; ++l)
        s.layers.push_back({0.1 * static_cast<double>(l + 1), 0.5});
    s.finalize();
    set.add(std::move(s));
    return set;
}

} // namespace

TEST(ModelKey, DenseAndInSortedKeyOrder)
{
    // Added out of order; keys follow the sorted key strings.
    TraceRegistry registry;
    registry.add(namedSet("zeta", SparsityPattern::Dense));
    registry.add(namedSet("alpha", SparsityPattern::RandomPointwise));
    registry.add(namedSet("alpha", SparsityPattern::BlockNM));
    registry.add(namedSet("mid", SparsityPattern::ChannelWise));

    ASSERT_EQ(registry.size(), 4u);
    EXPECT_EQ(registry.keys(),
              (std::vector<std::string>{"alpha/block_nm", "alpha/random",
                                        "mid/channel", "zeta/dense"}));
    ModelInfoLut lut = registry.buildLut();
    ASSERT_EQ(lut.size(), registry.size());
    for (uint32_t i = 0; i < registry.size(); ++i) {
        ModelKey key{i};
        const TraceSet& set = registry.get(key);
        EXPECT_EQ(set.key(), registry.keys()[i]);
        // A lookup by key is the by-name lookup, in both tables.
        EXPECT_EQ(registry.key(set.modelName(), set.pattern()), key);
        EXPECT_EQ(&registry.get(set.modelName(), set.pattern()), &set);
        EXPECT_EQ(lut.key(set.modelName(), set.pattern()), key);
        EXPECT_EQ(&lut.lookup(key),
                  &lut.lookup(set.modelName(), set.pattern()));
        EXPECT_EQ(lut.lookup(key).model, set.modelName());
        EXPECT_EQ(lut.lookup(key).pattern, set.pattern());
    }
}

TEST(ModelKey, LutBuiltInAnyOrderSharesRegistryKeys)
{
    TraceRegistry registry;
    ModelInfoLut lut;
    for (const char* model : {"c", "a", "b"}) {
        registry.add(namedSet(model, SparsityPattern::Dense));
        lut.addFromTrace(namedSet(model, SparsityPattern::Dense));
    }
    for (const char* model : {"a", "b", "c"}) {
        EXPECT_EQ(lut.key(model, SparsityPattern::Dense),
                  registry.key(model, SparsityPattern::Dense))
            << model;
    }
}

TEST(ModelKey, UnknownPairIsFatalNamingModelAndPattern)
{
    TraceRegistry registry;
    registry.add(tinySet());
    EXPECT_EXIT(registry.key("nosuch", SparsityPattern::BlockNM),
                ::testing::ExitedWithCode(1),
                "missing traces for 'nosuch/block_nm'; available trace "
                "sets: toy/random");
    ModelInfoLut lut = registry.buildLut();
    EXPECT_EXIT(lut.key("toy", SparsityPattern::ChannelWise),
                ::testing::ExitedWithCode(1), "no entry for toy/channel");
}

TEST(ModelKey, RequestsCarryTheirSetsKey)
{
    TraceRegistry registry;
    registry.add(tinySet());
    registry.add(namedSet("other", SparsityPattern::Dense));
    ModelKey key = registry.key("toy", SparsityPattern::RandomPointwise);
    const TraceSet& set = registry.get(key);
    Request req = makeRequest(3, key, set.sample(1), 0.5, 4.0,
                              set.avgTotalLatency());
    EXPECT_EQ(req.model, key);
    EXPECT_EQ(registry.get(req.model).modelName(), "toy");
    EXPECT_EQ(req.trace, &set.sample(1));
    EXPECT_DOUBLE_EQ(req.deadline, 0.5 + 4.0 * set.avgTotalLatency());
}
