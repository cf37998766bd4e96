/**
 * @file
 * Tests for the parallel sweep engine: jobs=1 vs jobs=N determinism,
 * seed replication and group averaging, cluster-mode cells, the
 * single cell resolver (every spec field reaches the run), and the
 * setup-keyed Phase-1 trace cache (hit, miss, stale manifest).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>

#include "exp/sweep.hh"
#include "obs/telemetry.hh"

using namespace dysta;

namespace {

/** Small AttNN-only context: cheap to profile, full real pipeline. */
BenchSetup
tinySetup()
{
    BenchSetup setup;
    setup.includeCnn = false;
    setup.samplesPerModel = 25;
    return setup;
}

/** A small mixed grid: 2 schedulers x 2 rates x 2 seeds. */
std::vector<SweepCell>
tinyGrid(int requests = 40, int seeds = 2)
{
    std::vector<SweepCell> cells;
    for (const char* sched : {"Dysta", "SJF"}) {
        for (double rate : {20.0, 35.0}) {
            SweepCell cell;
            cell.workload.kind = WorkloadKind::MultiAttNN;
            cell.workload.arrivalRate = rate;
            cell.workload.numRequests = requests;
            cell.workload.seed = 42;
            cell.scheduler = sched;
            for (const SweepCell& c : seedReplicas(cell, seeds))
                cells.push_back(c);
        }
    }
    return cells;
}

void
expectSameMetrics(const Metrics& a, const Metrics& b)
{
    // Bit-identical, not approximately equal: the parallel runner
    // must not perturb any cell's simulation.
    EXPECT_EQ(a.antt, b.antt);
    EXPECT_EQ(a.violationRate, b.violationRate);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.stp, b.stp);
    EXPECT_EQ(a.p50Turnaround, b.p50Turnaround);
    EXPECT_EQ(a.p95Turnaround, b.p95Turnaround);
    EXPECT_EQ(a.p99Turnaround, b.p99Turnaround);
    EXPECT_EQ(a.p50Latency, b.p50Latency);
    EXPECT_EQ(a.p95Latency, b.p95Latency);
    EXPECT_EQ(a.p99Latency, b.p99Latency);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.makespan, b.makespan);
}

} // namespace

TEST(SweepRunner, ParallelMetricsIdenticalToSerial)
{
    auto ctx = makeBenchContext(tinySetup());
    std::vector<SweepCell> cells = tinyGrid();

    SweepRunner serial(*ctx, 1);
    SweepRunner parallel(*ctx, 4);
    EXPECT_EQ(serial.jobs(), 1);
    EXPECT_EQ(parallel.jobs(), 4);

    std::vector<SweepCellResult> a = serial.run(cells);
    std::vector<SweepCellResult> b = parallel.run(cells);
    ASSERT_EQ(a.size(), cells.size());
    ASSERT_EQ(b.size(), cells.size());
    for (size_t i = 0; i < a.size(); ++i) {
        expectSameMetrics(a[i].metrics, b[i].metrics);
        EXPECT_EQ(a[i].decisions, b[i].decisions);
        EXPECT_EQ(a[i].preemptions, b[i].preemptions);
    }
}

TEST(SweepRunner, RepeatedParallelRunsAreDeterministic)
{
    auto ctx = makeBenchContext(tinySetup());
    std::vector<SweepCell> cells = tinyGrid();
    SweepRunner runner(*ctx, 3);
    std::vector<SweepCellResult> a = runner.run(cells);
    std::vector<SweepCellResult> b = runner.run(cells);
    for (size_t i = 0; i < a.size(); ++i)
        expectSameMetrics(a[i].metrics, b[i].metrics);
}

TEST(SweepRunner, MatchesRunAveraged)
{
    auto ctx = makeBenchContext(tinySetup());

    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 30.0;
    cell.workload.numRequests = 50;
    cell.workload.seed = 7;
    cell.scheduler = "Dysta";

    SweepRunner runner(*ctx, 2);
    std::vector<SweepCellResult> results =
        runner.run(seedReplicas(cell, 3));
    Metrics grouped = averageGroups(results, 3)[0];
    Metrics reference =
        runAveraged(*ctx, cell.workload, "Dysta", 3);
    expectSameMetrics(grouped, reference);
}

TEST(SweepRunner, ClusterCellsRun)
{
    auto ctx = makeBenchContext(tinySetup());
    std::vector<SweepCell> cells;
    for (size_t nodes : {1, 2}) {
        SweepCell cell;
        cell.workload.kind = WorkloadKind::MultiAttNN;
        cell.workload.arrivalRate = 60.0;
        cell.workload.numRequests = 60;
        cell.clusterMode = true;
        cell.cluster.numNodes = nodes;
        cells.push_back(cell);
    }
    SweepRunner runner(*ctx, 2);
    std::vector<SweepCellResult> results = runner.run(cells);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].metrics.completed, 60u);
    EXPECT_EQ(results[1].metrics.completed, 60u);
    // Two nodes under saturating load finish no later than one.
    EXPECT_GE(results[0].metrics.makespan,
              results[1].metrics.makespan);
}

TEST(SweepRunner, PolicyFactoryCells)
{
    auto ctx = makeBenchContext(tinySetup());
    SweepCell byName;
    byName.workload.kind = WorkloadKind::MultiAttNN;
    byName.workload.numRequests = 40;
    byName.scheduler = "Dysta";

    SweepCell byFactory = byName;
    byFactory.makePolicy = [](const BenchContext& c) {
        return std::make_unique<DystaScheduler>(
            c.lut, tunedDystaConfig(false));
    };

    SweepRunner runner(*ctx, 2);
    std::vector<SweepCellResult> results =
        runner.run({byName, byFactory});
    expectSameMetrics(results[0].metrics, results[1].metrics);
}

// --- the single resolver ---------------------------------------------------

namespace {

/** Everything a cell reports, compared bit for bit. */
bool
identicalResults(const SweepCellResult& a, const SweepCellResult& b)
{
    const Metrics& x = a.metrics;
    const Metrics& y = b.metrics;
    return x.antt == y.antt && x.violationRate == y.violationRate &&
           x.sloMissRate == y.sloMissRate &&
           x.throughput == y.throughput && x.goodput == y.goodput &&
           x.stp == y.stp && x.p50Turnaround == y.p50Turnaround &&
           x.p95Turnaround == y.p95Turnaround &&
           x.p99Turnaround == y.p99Turnaround &&
           x.p50Latency == y.p50Latency &&
           x.p95Latency == y.p95Latency &&
           x.p99Latency == y.p99Latency && x.makespan == y.makespan &&
           x.completed == y.completed && x.shed == y.shed &&
           x.estimators.size() == y.estimators.size() &&
           x.resilience.active == y.resilience.active &&
           x.batching.active == y.batching.active &&
           a.decisions == b.decisions &&
           a.preemptions == b.preemptions &&
           a.eventsProcessed == b.eventsProcessed &&
           a.perNodeCompleted == b.perNodeCompleted;
}

/** A loaded 3-node cluster cell with admission on (for brown-out). */
SweepCell
resolverBaseCell()
{
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 150.0;
    cell.workload.sloMultiplier = 5.0;
    cell.workload.arrival.kind = ArrivalKind::Mmpp;
    cell.workload.numRequests = 200;
    cell.workload.seed = 5;
    cell.clusterMode = true;
    cell.cluster.numNodes = 3;
    cell.cluster.dispatcher = "least-backlog";
    cell.cluster.admission.enabled = true;
    return cell;
}

} // namespace

TEST(SweepResolver, EverySpecFieldReachesTheRun)
{
    // runSweepCell is the one place a cell becomes a SimConfig: each
    // field, moved off its default alone, must change what the cell
    // reports. A field dropped in the resolver would leave the
    // result equal to the base. (The fields that must NOT change it,
    // calendar and Exact streaming, are pinned by
    // Streaming.ClusterBitIdenticalAcrossCalendarsAndModes.)
    auto ctx = makeBenchContext(tinySetup());
    const SweepCell base = resolverBaseCell();
    const SweepCellResult reference = runSweepCell(*ctx, base);
    EXPECT_EQ(reference.metrics.completed + reference.metrics.shed,
              200u);

    auto expectChanges = [&](const SweepCell& from,
                             const SweepCellResult& from_result,
                             const std::function<void(SweepCell&)>& set,
                             const char* field) {
        SweepCell cell = from;
        set(cell);
        EXPECT_FALSE(identicalResults(runSweepCell(*ctx, cell),
                                      from_result))
            << field << " did not reach the run";
    };
    auto fromBase = [&](const std::function<void(SweepCell&)>& set,
                        const char* field) {
        expectChanges(base, reference, set, field);
    };

    fromBase(
        [](SweepCell& c) { c.cluster.chaos = "mtbf:up=exp@1,down=exp@0.2"; },
        "chaos");
    fromBase([](SweepCell& c) { c.cluster.retry = "retry:max=2"; },
             "retry");
    fromBase([](SweepCell& c) { c.cluster.hedge = "hedge:quantile=0.9"; },
             "hedge");
    fromBase([](SweepCell& c) { c.cluster.brownout = "brownout:step=0.5"; },
             "brownout");
    fromBase([](SweepCell& c) { c.cluster.tiers = "0.5,0.5"; }, "tiers");
    fromBase(
        [](SweepCell& c) {
            c.cluster.batcher = "batcher:size=4,delay=2ms,compose=sparsity";
        },
        "batcher");
    fromBase([](SweepCell& c) { c.cluster.admissionEstimator = "oracle"; },
             "admissionEstimator");
    fromBase(
        [](SweepCell& c) {
            c.cluster.nodeEvents = {{0.3, 1, NodeEventKind::Fail}};
        },
        "nodeEvents");

    // onFailure only matters when a node fails under started work
    // (without admission, which could shed the restarted requests
    // anyway).
    SweepCell failing = base;
    failing.cluster.admission.enabled = false;
    failing.cluster.nodeEvents = {{0.3, 1, NodeEventKind::Fail}};
    expectChanges(failing, runSweepCell(*ctx, failing),
                  [](SweepCell& c) {
                      c.cluster.onFailure = RestartPolicy::Shed;
                  },
                  "onFailure");

    // stealing only matters behind the work-stealing dispatcher.
    SweepCell stealing = base;
    stealing.cluster.dispatcher = "work-stealing";
    expectChanges(stealing, runSweepCell(*ctx, stealing),
                  [](SweepCell& c) {
                      c.cluster.stealing.imbalanceRatio = 1.1;
                  },
                  "stealing");

    // Run-mode fields of the cell itself.
    fromBase([](SweepCell& c) { c.probes = {"lut"}; }, "probes");
    Telemetry sink(TelemetryConfig{/*recordEvents=*/false,
                                   /*recordSeries=*/false});
    sink.addProbe("lut", std::make_unique<LutEstimator>(ctx->lut));
    fromBase([&sink](SweepCell& c) { c.telemetry = &sink; },
             "telemetry");
    SweepCell streamed = base;
    streamed.streaming = true;
    expectChanges(streamed, runSweepCell(*ctx, streamed),
                  [](SweepCell& c) {
                      c.metricsKind = MetricsKind::Sketch;
                  },
                  "metricsKind");
}

TEST(SweepHelpers, SeedReplicasAndGroupAverages)
{
    SweepCell cell;
    cell.workload.seed = 100;
    std::vector<SweepCell> reps = seedReplicas(cell, 3);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_EQ(reps[0].workload.seed, 100u);
    EXPECT_EQ(reps[2].workload.seed, 102u);

    std::vector<SweepCellResult> results(4);
    results[0].metrics.antt = 1.0;
    results[1].metrics.antt = 3.0;
    results[2].metrics.antt = 10.0;
    results[3].metrics.antt = 20.0;
    std::vector<Metrics> avg = averageGroups(results, 2);
    ASSERT_EQ(avg.size(), 2u);
    EXPECT_DOUBLE_EQ(avg[0].antt, 2.0);
    EXPECT_DOUBLE_EQ(avg[1].antt, 15.0);
}

// --- trace cache ------------------------------------------------------------

namespace {

struct CacheDir
{
    std::string dir = "/tmp/dysta_test_trace_cache";
    CacheDir() { std::filesystem::remove_all(dir); }
    ~CacheDir() { std::filesystem::remove_all(dir); }
};

} // namespace

TEST(TraceCache, ColdAndCachedContextsAreIdentical)
{
    CacheDir cache;
    BenchSetup setup = tinySetup();

    auto cold = makeBenchContext(setup, cache.dir);
    ASSERT_TRUE(std::filesystem::exists(cache.dir + "/manifest.txt"));
    ASSERT_TRUE(std::filesystem::exists(cache.dir + "/traces.bin"));
    auto cached = makeBenchContext(setup, cache.dir);

    // Identical registries and LUT entries...
    ASSERT_EQ(cached->registry.size(), cold->registry.size());
    EXPECT_EQ(cached->registry.keys(), cold->registry.keys());
    ASSERT_EQ(cached->lut.size(), cold->lut.size());
    for (const char* model : {"bert", "gpt2", "bart"}) {
        const ModelInfo& a =
            cold->lut.lookup(model, SparsityPattern::Dense);
        const ModelInfo& b =
            cached->lut.lookup(model, SparsityPattern::Dense);
        EXPECT_EQ(a.avgLatency, b.avgLatency);
        EXPECT_EQ(a.avgNetworkSparsity, b.avgNetworkSparsity);
        EXPECT_EQ(a.avgLayerLatency, b.avgLayerLatency);
        EXPECT_EQ(a.avgLayerSparsity, b.avgLayerSparsity);
        EXPECT_EQ(a.remainingFrom, b.remainingFrom);
    }
    ASSERT_EQ(cached->models.size(), cold->models.size());
    for (size_t i = 0; i < cold->models.size(); ++i)
        EXPECT_EQ(cached->models[i].name, cold->models[i].name);

    // ...and identical simulation results through runOne.
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.numRequests = 50;
    auto policy_a = makeSchedulerByName("Dysta", *cold, wl.kind);
    auto policy_b = makeSchedulerByName("Dysta", *cached, wl.kind);
    SimResult ra = runOne(*cold, wl, *policy_a);
    SimResult rb = runOne(*cached, wl, *policy_b);
    expectSameMetrics(ra.metrics, rb.metrics);
    EXPECT_EQ(ra.decisions, rb.decisions);
    EXPECT_EQ(ra.preemptions, rb.preemptions);
}

TEST(TraceCache, StaleManifestTriggersRegeneration)
{
    CacheDir cache;
    BenchSetup setup = tinySetup();
    makeBenchContext(setup, cache.dir);

    // A different setup must ignore the stale cache and regenerate.
    BenchSetup changed = setup;
    changed.samplesPerModel = setup.samplesPerModel + 5;
    EXPECT_NE(benchSetupFingerprint(setup),
              benchSetupFingerprint(changed));
    auto regenerated = makeBenchContext(changed, cache.dir);
    EXPECT_EQ(
        regenerated->registry.get("bert", SparsityPattern::Dense)
            .size(),
        static_cast<size_t>(changed.samplesPerModel));

    // The rewritten cache now serves the changed setup.
    std::ifstream manifest(cache.dir + "/manifest.txt");
    std::string content((std::istreambuf_iterator<char>(manifest)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, benchSetupFingerprint(changed));
    auto cached = makeBenchContext(changed, cache.dir);
    EXPECT_EQ(
        cached->registry.get("bert", SparsityPattern::Dense).size(),
        static_cast<size_t>(changed.samplesPerModel));
}

TEST(TraceCache, HardwareConfigChangeInvalidatesCache)
{
    // The regression this pins: the manifest fingerprint must cover
    // the reference accelerator hardware, or a cached Phase-1
    // profile silently survives a hw change and every latency in
    // the simulation is wrong.
    CacheDir cache;
    BenchSetup setup = tinySetup();
    auto original = makeBenchContext(setup, cache.dir);

    BenchSetup changed = setup;
    changed.sangerHw.clockHz = setup.sangerHw.clockHz * 2.0;
    EXPECT_NE(benchSetupFingerprint(setup),
              benchSetupFingerprint(changed));

    // The faster clock must show up in the regenerated profile: a
    // stale cache hit would replay the old latencies unchanged.
    auto regenerated = makeBenchContext(changed, cache.dir);
    const ModelInfo& before =
        original->lut.lookup("bert", SparsityPattern::Dense);
    const ModelInfo& after =
        regenerated->lut.lookup("bert", SparsityPattern::Dense);
    EXPECT_LT(after.avgLatency, before.avgLatency);

    // The rewritten manifest now serves the changed hw config.
    std::ifstream manifest(cache.dir + "/manifest.txt");
    std::string content((std::istreambuf_iterator<char>(manifest)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, benchSetupFingerprint(changed));
    auto cached = makeBenchContext(changed, cache.dir);
    EXPECT_EQ(cached->lut.lookup("bert", SparsityPattern::Dense)
                  .avgLatency,
              after.avgLatency);

    // The Eyeriss config is covered too (CNN-free setups still
    // fingerprint it: the setup describes the hardware, not the
    // model mix).
    BenchSetup eyeriss_changed = setup;
    eyeriss_changed.eyerissHw.peCount = 64;
    EXPECT_NE(benchSetupFingerprint(setup),
              benchSetupFingerprint(eyeriss_changed));
}

TEST(TraceCache, CorruptBinaryFallsBackToCsv)
{
    CacheDir cache;
    BenchSetup setup = tinySetup();
    auto cold = makeBenchContext(setup, cache.dir);

    // Clobber the packed blob; the CSVs must still serve the cache.
    std::ofstream bad(cache.dir + "/traces.bin",
                      std::ios::binary | std::ios::trunc);
    bad << "garbage";
    bad.close();

    auto cached = makeBenchContext(setup, cache.dir);
    ASSERT_EQ(cached->registry.size(), cold->registry.size());
    const ModelInfo& a = cold->lut.lookup("bert",
                                          SparsityPattern::Dense);
    const ModelInfo& b = cached->lut.lookup("bert",
                                            SparsityPattern::Dense);
    EXPECT_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.avgLayerLatency, b.avgLayerLatency);
}

TEST(TraceCache, ModelKeysMatchAcrossColdCsvAndBinaryLoads)
{
    CacheDir cache;
    BenchSetup setup = tinySetup();
    setup.includeCnn = true; // CNN patterns give keys past the models
    setup.samplesPerModel = 4;
    auto cold = makeBenchContext(setup, cache.dir);
    auto binary = makeBenchContext(setup, cache.dir);
    std::filesystem::remove(cache.dir + "/traces.bin");
    auto csv = makeBenchContext(setup, cache.dir);

    const std::vector<std::string>& keys = cold->registry.keys();
    ASSERT_EQ(keys.size(), 4u * cnnPatterns().size() + 3u);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    for (const BenchContext* ctx : {binary.get(), csv.get()}) {
        EXPECT_EQ(ctx->registry.keys(), keys);
        ASSERT_EQ(ctx->lut.size(), keys.size());
        for (uint32_t i = 0; i < keys.size(); ++i) {
            ModelKey key{i};
            const TraceSet& set = ctx->registry.get(key);
            EXPECT_EQ(set.key(), keys[i]);
            EXPECT_EQ(ctx->registry.key(set.modelName(), set.pattern()),
                      key);
            EXPECT_EQ(ctx->lut.key(set.modelName(), set.pattern()), key);
            EXPECT_EQ(ctx->lut.lookup(key).avgLayerLatency,
                      cold->lut.lookup(key).avgLayerLatency);
        }
    }

    // Generated requests carry the same keys on every path.
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiCNN;
    wl.numRequests = 60;
    std::vector<Request> a = generateWorkload(wl, cold->registry);
    std::vector<Request> b = generateWorkload(wl, csv->registry);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].model, b[i].model) << i;
}

namespace {

/** Rewrite `<dir>/<file>` with `extra` copies of its last layer. */
void
padCachedTraceLayers(const std::string& dir, const std::string& file,
                     size_t extra)
{
    std::string path = dir + "/" + file;
    TraceSet loaded = TraceSet::load(path);
    TraceSet padded(loaded.modelName(), loaded.family(),
                    loaded.pattern());
    for (SampleTrace s : loaded.all()) {
        for (size_t i = 0; i < extra; ++i)
            s.layers.push_back(s.layers.back());
        s.finalize();
        padded.add(std::move(s));
    }
    padded.save(path);
    std::filesystem::remove(dir + "/traces.bin");
}

} // namespace

TEST(TraceCache, LayerCountMismatchIsFatal)
{
    CacheDir cache;
    BenchSetup setup = tinySetup();
    auto cold = makeBenchContext(setup, cache.dir);
    size_t layers = cold->registry.get("bart", SparsityPattern::Dense)
                        .layerCount();
    padCachedTraceLayers(cache.dir, "bart_dense.csv", 40);
    EXPECT_EXIT(makeBenchContext(setup, cache.dir),
                ::testing::ExitedWithCode(1),
                "makeBenchContext: trace cache '" + cache.dir +
                    "': traces for 'bart/dense' have " +
                    std::to_string(layers + 40) +
                    " layers, model bart has " + std::to_string(layers));
}

TEST(TraceCache, MissingCachedSetIsFatal)
{
    CacheDir cache;
    BenchSetup setup = tinySetup();
    makeBenchContext(setup, cache.dir);
    std::filesystem::remove(cache.dir + "/gpt2_dense.csv");
    std::filesystem::remove(cache.dir + "/traces.bin");
    EXPECT_EXIT(makeBenchContext(setup, cache.dir),
                ::testing::ExitedWithCode(1),
                "makeBenchContext: trace cache '" + cache.dir +
                    "' has no traces for 'gpt2/dense'");
}
