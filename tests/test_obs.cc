/**
 * @file
 * Tests of the telemetry subsystem: estimator-residual math against
 * hand-computed values, event-conservation invariants on a real
 * cluster run with failures, enabled-vs-disabled bit-identity,
 * deterministic trace exports, and report diffing modulo metadata.
 */

#include <gtest/gtest.h>

#include <memory>

#include "api/diff.hh"
#include "api/scenario.hh"
#include "exp/gantt.hh"
#include "exp/sweep.hh"
#include "obs/chrome_trace.hh"
#include "obs/telemetry.hh"
#include "test_helpers.hh"
#include "util/json.hh"
#include "workload/cluster_spec.hh"

using namespace dysta;

namespace {

/** Small shared Phase-1 context (profiled once per process). */
const BenchContext&
smallCtx()
{
    static std::unique_ptr<BenchContext> ctx = [] {
        BenchSetup setup;
        setup.samplesPerModel = 20;
        return makeBenchContext(setup);
    }();
    return *ctx;
}

/** A cluster cell with mid-run failure + recovery on node 0. */
SweepCell
failoverCell()
{
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 100.0;
    cell.workload.numRequests = 120;
    cell.workload.seed = 11;
    cell.clusterMode = true;
    ClusterRunConfig& cluster = cell.cluster;
    cluster.nodes = fleetFromSpec("sanger:2,eyeriss-xl:2");
    cluster.dispatcher = "round-robin";
    cluster.nodeScheduler = "Dysta";
    cluster.nodeEvents = nodeEventsFromSpec("fail@0.1:0,recover@0.5:0");
    return cell;
}

Telemetry
makeRecordingSink(const BenchContext& ctx)
{
    Telemetry telemetry;
    telemetry.addProbe("lut",
                       std::make_unique<LutEstimator>(ctx.lut));
    telemetry.addProbe("dysta",
                       std::make_unique<DystaEstimator>(ctx.lut));
    return telemetry;
}

// --- estimator residual math -----------------------------------------

/**
 * One model with samples {1,2} and {3,4}: LUT layer averages {2,3},
 * average isolated latency 5. A request replaying sample 0 (isolated
 * 3, remaining 2 after layer 0) therefore has exactly one remaining
 * residual 3-2 = 1 and one isolated residual 5-3 = 2 under the LUT
 * probe.
 */
TEST(TelemetryProbes, ResidualsMatchHandComputedValues)
{
    test::World world;
    world.addModelSamples(
        "m", {test::trace({1.0, 2.0}, {0.5, 0.5}),
              test::trace({3.0, 4.0}, {0.5, 0.5})});
    Request req = world.request(0, "m", /*arrival=*/0.0);

    Telemetry telemetry;
    telemetry.addProbe(
        "lut", std::make_unique<LutEstimator>(world.lut));
    telemetry.beginRun(1);

    // Drive the sink through the same protocol the sim core uses:
    // nextLayer is advanced before layerComplete fires.
    telemetry.arrival(req, 0.0);
    telemetry.dispatch(req, 0, 1, 0.0);
    telemetry.execStart(req, 0, 0, 0.0);
    req.nextLayer = 1;
    req.executedTime = 1.0;
    telemetry.layerComplete(req, 0, 0, 0.0, 1.0, 0.5);
    telemetry.execStart(req, 0, 1, 1.0);
    req.nextLayer = 2;
    req.executedTime = 3.0;
    telemetry.layerComplete(req, 0, 1, 1.0, 3.0, 0.5);
    req.finishTime = 3.0;
    telemetry.complete(req, 0, 0, 3.0);
    telemetry.endRun(3.0);

    std::vector<EstimatorAccuracy> acc = telemetry.accuracy();
    ASSERT_EQ(acc.size(), 1u);
    EXPECT_EQ(acc[0].estimator, "lut");
    EXPECT_DOUBLE_EQ(acc[0].samples, 1.0);
    EXPECT_DOUBLE_EQ(acc[0].bias, 1.0);
    EXPECT_DOUBLE_EQ(acc[0].rmse, 1.0);
    EXPECT_DOUBLE_EQ(acc[0].isolatedSamples, 1.0);
    EXPECT_DOUBLE_EQ(acc[0].isolatedBias, 2.0);
    EXPECT_DOUBLE_EQ(acc[0].isolatedRmse, 2.0);

    EXPECT_EQ(telemetry.arrivals(), 1u);
    EXPECT_EQ(telemetry.completions(), 1u);
    EXPECT_EQ(telemetry.execStarts(), 2u);
    EXPECT_EQ(telemetry.layerCompletions(), 2u);
    EXPECT_EQ(telemetry.abandonedLayers(), 0u);
    ASSERT_EQ(telemetry.nodes().size(), 1u);
    EXPECT_DOUBLE_EQ(telemetry.nodes()[0].busySec, 3.0);
    EXPECT_EQ(telemetry.runEnd(), 3.0);
}

/** An oracle probe is exact: zero bias, zero RMSE. */
TEST(TelemetryProbes, OracleProbeHasZeroResiduals)
{
    test::World world;
    world.addModel("m", {1.0, 2.0, 3.0});
    Request req = world.request(0, "m", 0.0);

    Telemetry telemetry;
    telemetry.addProbe("oracle",
                       std::make_unique<OracleEstimator>());
    telemetry.beginRun(1);
    telemetry.dispatch(req, 0, 1, 0.0);
    double now = 0.0;
    for (size_t layer = 0; layer < req.layerCount(); ++layer) {
        double latency = req.trace->layers[layer].latency;
        telemetry.execStart(req, 0, layer, now);
        ++req.nextLayer;
        req.executedTime += latency;
        telemetry.layerComplete(req, 0, layer, now, now + latency,
                                0.5);
        now += latency;
    }
    telemetry.complete(req, 0, 0, now);
    telemetry.endRun(now);

    std::vector<EstimatorAccuracy> acc = telemetry.accuracy();
    ASSERT_EQ(acc.size(), 1u);
    EXPECT_DOUBLE_EQ(acc[0].samples, 2.0);
    EXPECT_DOUBLE_EQ(acc[0].bias, 0.0);
    EXPECT_DOUBLE_EQ(acc[0].rmse, 0.0);
    EXPECT_DOUBLE_EQ(acc[0].isolatedBias, 0.0);
}

// --- conservation invariants on a real run ---------------------------

TEST(TelemetryConservation, ClusterRunWithFailuresBalances)
{
    const BenchContext& ctx = smallCtx();
    SweepCell cell = failoverCell();
    Telemetry telemetry = makeRecordingSink(ctx);
    cell.telemetry = &telemetry;

    SimResult result = runSweepCell(ctx, cell);

    // Every layer started either completed or was lost to a failure.
    EXPECT_EQ(telemetry.execStarts(),
              telemetry.layerCompletions() +
                  telemetry.abandonedLayers());
    // Every request resolved exactly one way.
    EXPECT_EQ(telemetry.arrivals(),
              telemetry.completions() + telemetry.sheds());
    // The sink and the engine agree on the headline counts.
    EXPECT_EQ(telemetry.completions(), result.metrics.completed);
    EXPECT_EQ(telemetry.sheds(), result.metrics.shed);
    EXPECT_EQ(telemetry.preemptionEvents(), result.preemptions);

    // Per-node counters sum to the run totals.
    size_t dispatched = 0;
    size_t completed = 0;
    size_t fails = 0;
    size_t recovers = 0;
    for (const NodeTelemetry& node : telemetry.nodes()) {
        dispatched += node.dispatched;
        completed += node.completed;
        fails += node.fails;
        recovers += node.recovers;
    }
    EXPECT_EQ(dispatched, telemetry.dispatches());
    EXPECT_EQ(completed, telemetry.completions());
    EXPECT_EQ(fails, 1u);
    EXPECT_EQ(recovers, 1u);
    // The failure displaced work: every restarted request
    // re-dispatches (queued never-started requests displaced by the
    // failure re-dispatch too, without a Restart event, so this is a
    // lower bound).
    EXPECT_GT(telemetry.restarts(), 0u);
    EXPECT_GE(telemetry.dispatches(),
              telemetry.arrivals() - telemetry.sheds() +
                  telemetry.restarts());

    // Both probes saw every observed layer of unfinished requests.
    std::vector<EstimatorAccuracy> acc = telemetry.accuracy();
    ASSERT_EQ(acc.size(), 2u);
    EXPECT_EQ(acc[0].estimator, "lut");
    EXPECT_EQ(acc[1].estimator, "dysta");
    EXPECT_GT(acc[0].samples, 0.0);
    EXPECT_EQ(acc[0].samples, acc[1].samples);
    EXPECT_GT(acc[0].rmse, 0.0);
}

// --- enabled vs disabled bit-identity --------------------------------

TEST(TelemetryIdentity, AttachedSinkDoesNotPerturbTheRun)
{
    const BenchContext& ctx = smallCtx();
    SweepCell plain = failoverCell();
    SimResult base = runSweepCell(ctx, plain);

    SweepCell traced = failoverCell();
    Telemetry telemetry = makeRecordingSink(ctx);
    traced.telemetry = &telemetry;
    SimResult observed = runSweepCell(ctx, traced);

    EXPECT_EQ(base.preemptions, observed.preemptions);
    EXPECT_EQ(base.decisions, observed.decisions);
    // The sink-attached run additionally carries probe accuracy;
    // every other field must match the plain run bit for bit.
    EXPECT_TRUE(base.metrics.estimators.empty());
    EXPECT_EQ(observed.metrics.estimators.size(), 2u);
    Metrics unprobed = observed.metrics;
    unprobed.estimators.clear();
    EXPECT_EQ(metricsDifferences(base.metrics, unprobed),
              std::vector<std::string>{});
}

// --- deterministic exports -------------------------------------------

TEST(TelemetryExports, ChromeTraceIsDeterministicAndValidJson)
{
    const BenchContext& ctx = smallCtx();
    std::vector<std::string> names = {"sanger0", "sanger1",
                                      "eyeriss-xl0", "eyeriss-xl1"};

    auto traceOnce = [&] {
        SweepCell cell = failoverCell();
        Telemetry telemetry = makeRecordingSink(ctx);
        cell.telemetry = &telemetry;
        runSweepCell(ctx, cell);
        return chromeTraceJson(telemetry, names);
    };
    std::string first = traceOnce();
    std::string second = traceOnce();
    EXPECT_EQ(first, second);

    JsonValue doc = parseJson(first);
    ASSERT_TRUE(doc.isObject());
    const JsonValue* unit = doc.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->str, "ms");
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    // The failure injection must surface as fail + recover instants
    // and the run must have produced execution slices.
    size_t fails = 0;
    size_t recovers = 0;
    size_t slices = 0;
    for (const JsonValue& ev : events->items) {
        const JsonValue* name = ev.find("name");
        const JsonValue* phase = ev.find("ph");
        if (name == nullptr || phase == nullptr)
            continue;
        if (phase->str == "i" && name->str == "fail")
            ++fails;
        if (phase->str == "i" && name->str == "recover")
            ++recovers;
        if (phase->str == "X")
            ++slices;
    }
    EXPECT_EQ(fails, 1u);
    EXPECT_EQ(recovers, 1u);
    EXPECT_GT(slices, 0u);
}

TEST(TelemetryExports, GanttRendersEveryNodeLane)
{
    const BenchContext& ctx = smallCtx();
    SweepCell cell = failoverCell();
    Telemetry telemetry = makeRecordingSink(ctx);
    cell.telemetry = &telemetry;
    runSweepCell(ctx, cell);

    std::vector<std::string> names = {"sanger0", "sanger1",
                                      "eyeriss-xl0", "eyeriss-xl1"};
    std::string chart = renderTelemetryGantt(telemetry, names);
    for (const std::string& name : names)
        EXPECT_NE(chart.find(name), std::string::npos) << name;
    // Node 0 was down 0.1s..0.5s of a ~1s run: its lane shows 'x'.
    EXPECT_NE(chart.find('x'), std::string::npos);
}

// --- scenario-level determinism and pooling --------------------------

TEST(TelemetryScenario, ProbeAccuracyIsIdenticalAcrossJobCounts)
{
    ScenarioSpec spec;
    spec.name = "obs-jobs";
    spec.workloads = {workloadPanelFromSpec("attnn@100")};
    spec.fleets = {"sanger:2"};
    spec.dispatchers = {"least-backlog"};
    spec.schedulers = {"Dysta"};
    spec.requests = 40;
    spec.seeds = 2;
    spec.samples = 20;

    ScenarioRunOptions serial;
    serial.jobs = 1;
    serial.ctx = &smallCtx();
    ScenarioRunOptions parallel;
    parallel.jobs = 4;
    parallel.ctx = &smallCtx();

    ScenarioResult a = runScenario(spec, serial);
    ScenarioResult b = runScenario(spec, parallel);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (size_t i = 0; i < a.rows.size(); ++i) {
        const Metrics& ma = a.rows[i].metrics;
        const Metrics& mb = b.rows[i].metrics;
        EXPECT_EQ(metricsDifferences(ma, mb), std::vector<std::string>{});
        ASSERT_EQ(ma.estimators.size(), 2u);
        EXPECT_GT(ma.estimators[0].samples, 0.0);
    }
}

// --- report diffing ---------------------------------------------------

TEST(ReportDiffTest, IgnoresMetadataComparesResults)
{
    JsonValue a = parseJson(
        R"({"tool":"sdysta","meta":{"jobs":1,"sweep_sec":0.5},)"
        R"("deterministic":true,"scenarios":[{"name":"s",)"
        R"("rows":[{"antt":1.25}]}]})");
    JsonValue b = parseJson(
        R"({"tool":"sdysta","meta":{"jobs":8,"sweep_sec":9.0},)"
        R"("deterministic":true,"scenarios":[{"name":"s",)"
        R"("rows":[{"antt":1.25}]}]})");
    EXPECT_TRUE(diffReports(a, b).identical());

    JsonValue c = parseJson(
        R"({"tool":"sdysta","meta":{"jobs":1},)"
        R"("deterministic":true,"scenarios":[{"name":"s",)"
        R"("rows":[{"antt":1.5}]}]})");
    ReportDiff diff = diffReports(a, c);
    ASSERT_EQ(diff.differences.size(), 1u);
    EXPECT_EQ(diff.differences[0],
              "scenarios[0].rows[0].antt: 1.25 vs 1.5");
}

TEST(ReportDiffTest, FlagsStructuralDifferences)
{
    JsonValue a = parseJson(R"({"rows":[1,2,3]})");
    JsonValue b = parseJson(R"({"rows":[1,2]})");
    ReportDiff size = diffReports(a, b);
    ASSERT_EQ(size.differences.size(), 1u);
    EXPECT_EQ(size.differences[0], "rows: 3 vs 2 elements");

    JsonValue c = parseJson(R"({"rows":"none"})");
    ReportDiff kind = diffReports(a, c);
    ASSERT_EQ(kind.differences.size(), 1u);
    EXPECT_NE(kind.differences[0].find("array"), std::string::npos);
    EXPECT_NE(kind.differences[0].find("string"), std::string::npos);
}

} // namespace
