/**
 * @file
 * Tests for the parallel sweep engine: jobs=1 vs jobs=N determinism,
 * seed replication and group averaging, cluster-mode cells, and the
 * single cell resolver (every spec field reaches the run).
 */

#include <gtest/gtest.h>

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
        EXPECT_EQ(metricsDifferences(a[i].metrics, b[i].metrics),
                  std::vector<std::string>{});
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
        EXPECT_EQ(metricsDifferences(a[i].metrics, b[i].metrics),
                  std::vector<std::string>{});
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
    EXPECT_EQ(metricsDifferences(grouped, reference),
              std::vector<std::string>{});
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
    EXPECT_EQ(metricsDifferences(results[0].metrics, results[1].metrics),
              std::vector<std::string>{});
}

// --- the single resolver ---------------------------------------------------

namespace {

/** Everything a cell reports, compared bit for bit. */
bool
identicalResults(const SweepCellResult& a, const SweepCellResult& b)
{
    return metricsDifferences(a.metrics, b.metrics).empty() &&
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
    // result equal to the base. (The field that must NOT change it,
    // Exact streaming, is pinned by
    // Streaming.ClusterBitIdenticalAcrossModes.)
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
