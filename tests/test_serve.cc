/**
 * @file
 * Tests for the multi-accelerator serving subsystem: per-node
 * execution semantics (equivalence with the single-accelerator
 * engine), dispatcher placement policies, SLO-aware admission
 * control, determinism, and cluster-level scaling behaviour.
 */

#include <gtest/gtest.h>

#include <memory>

#include "exp/sweep.hh"
#include "sched/engine.hh"
#include "sched/fcfs.hh"
#include "sched/sjf.hh"
#include "serve/dispatcher.hh"
#include "sim/core.hh"
#include "test_helpers.hh"

using namespace dysta;

namespace {

PolicyFactory
fcfsNodes()
{
    return [](const NodeProfile&, int) {
        return std::make_unique<FcfsScheduler>();
    };
}

/** Shared profiled context for scenario-level tests (AttNN only). */
BenchContext&
ctx()
{
    static std::unique_ptr<BenchContext> instance = [] {
        BenchSetup setup;
        setup.samplesPerModel = 30;
        setup.includeCnn = false;
        return makeBenchContext(setup);
    }();
    return *instance;
}

/** Serve `wl` on the fleet `cluster` describes, as a scenario cell. */
SimResult
serve(const WorkloadConfig& wl, const ClusterRunConfig& cluster)
{
    SweepCell cell;
    cell.workload = wl;
    cell.clusterMode = true;
    cell.cluster = cluster;
    return runSweepCell(ctx(), cell);
}

} // namespace

// --- node/engine semantics -------------------------------------------------

TEST(ServingNode, OneNodeRoundRobinClusterMatchesRunSingleNode)
{
    test::World world;
    world.addModel("a", {0.2, 0.3}, {0.5, 0.5});
    world.addModel("b", {0.1, 0.1, 0.1}, {0.5, 0.5, 0.5});

    std::vector<Request> engine_reqs;
    for (int i = 0; i < 6; ++i) {
        engine_reqs.push_back(world.request(
            i, i % 2 == 0 ? "a" : "b", 0.15 * i));
    }
    std::vector<Request> cluster_reqs = engine_reqs;

    FcfsScheduler fcfs;
    SimResult er =
        runSingleNode(singleNodeSimConfig(), engine_reqs, fcfs);

    RoundRobinDispatcher rr;
    SimResult cr = runSimulation(homogeneousCluster(1), cluster_reqs, rr,
                                 fcfsNodes());

    ASSERT_EQ(engine_reqs.size(), cluster_reqs.size());
    for (size_t i = 0; i < engine_reqs.size(); ++i) {
        EXPECT_DOUBLE_EQ(engine_reqs[i].finishTime,
                         cluster_reqs[i].finishTime);
    }
    EXPECT_DOUBLE_EQ(er.metrics.antt, cr.metrics.antt);
    EXPECT_EQ(er.decisions, cr.decisions);
    EXPECT_EQ(er.preemptions, cr.preemptions);
}

TEST(ServingNode, SimultaneousArrivalsMatchRunSingleNode)
{
    // All requests arrive at t=0: the node's policy must see the
    // whole cohort before its first dispatch decision, exactly like
    // runSingleNode's admit-then-select loop. SJF makes the order
    // observable (shortest job first, not arrival order).
    test::World world;
    world.addModel("long", {1.0, 1.0}, {0.5, 0.5});
    world.addModel("short", {0.1}, {0.5});

    std::vector<Request> engine_reqs = {
        world.request(0, "long", 0.0),
        world.request(1, "short", 0.0),
        world.request(2, "short", 0.0),
    };
    std::vector<Request> cluster_reqs = engine_reqs;

    SjfScheduler sjf(world.lut);
    SimResult er =
        runSingleNode(singleNodeSimConfig(), engine_reqs, sjf);

    RoundRobinDispatcher rr;
    SimResult cr = runSimulation(homogeneousCluster(1), cluster_reqs, rr,
                                 [&](const NodeProfile&, int) {
                                     return std::make_unique<
                                         SjfScheduler>(world.lut);
                                 });

    // Shorts overtake the long request in both engines.
    EXPECT_DOUBLE_EQ(cluster_reqs[1].finishTime, 0.1);
    EXPECT_DOUBLE_EQ(cluster_reqs[2].finishTime, 0.2);
    for (size_t i = 0; i < engine_reqs.size(); ++i) {
        EXPECT_DOUBLE_EQ(engine_reqs[i].finishTime,
                         cluster_reqs[i].finishTime);
    }
    EXPECT_DOUBLE_EQ(er.metrics.antt, cr.metrics.antt);
}

TEST(ServingNode, SpeedFactorScalesExecution)
{
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    std::vector<Request> reqs = {world.request(0, "a", 0.0)};

    SimConfig cfg;
    cfg.nodes = {scaledNodeProfile("fast", 4.0)};
    RoundRobinDispatcher rr;
    SimResult r = runSimulation(cfg, reqs, rr, fcfsNodes());
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 0.25);
    EXPECT_EQ(r.metrics.completed, 1u);
}

TEST(ServingNode, EventsCoverAllLayersOnAllNodes)
{
    test::World world;
    world.addModel("a", {0.1, 0.1}, {0.5, 0.5});
    std::vector<Request> reqs;
    for (int i = 0; i < 4; ++i)
        reqs.push_back(world.request(i, "a", 0.0));

    SimConfig cfg = homogeneousCluster(2);
    Telemetry sink;
    cfg.telemetry = &sink;
    RoundRobinDispatcher rr;
    SimResult r = runSimulation(cfg, reqs, rr, fcfsNodes());

    std::vector<TelemetryEvent> slices = test::layerSlices(sink);
    EXPECT_EQ(slices.size(), 8u); // 4 requests x 2 layers
    for (const TelemetryEvent& ev : slices) {
        EXPECT_GE(ev.node, 0);
        EXPECT_LT(ev.node, 2);
        EXPECT_NEAR(ev.time - ev.start, 0.1, 1e-12);
    }
    EXPECT_EQ(r.perNodeCompleted.size(), 2u);
    EXPECT_EQ(r.perNodeCompleted[0] + r.perNodeCompleted[1], 4u);
}

// --- dispatchers -----------------------------------------------------------

TEST(Dispatcher, RoundRobinRotates)
{
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    std::vector<Request> reqs;
    for (int i = 0; i < 6; ++i)
        reqs.push_back(world.request(i, "a", 0.0));

    RoundRobinDispatcher rr;
    SimResult r =
        runSimulation(homogeneousCluster(3), reqs, rr, fcfsNodes());
    for (size_t n = 0; n < 3; ++n)
        EXPECT_EQ(r.perNodeCompleted[n], 2u);
}

TEST(Dispatcher, LeastOutstandingAvoidsBusyNode)
{
    test::World world;
    world.addModel("long", {10.0}, {0.5});
    world.addModel("short", {0.1}, {0.5});

    // Request 0 occupies node 0; later short requests (spaced wider
    // than their 0.1 s runtime) must all land on the idle node 1
    // under least-outstanding.
    std::vector<Request> reqs = {world.request(0, "long", 0.0)};
    for (int i = 1; i <= 4; ++i)
        reqs.push_back(world.request(i, "short", 0.05 + 0.2 * (i - 1)));

    LeastOutstandingDispatcher lo;
    SimResult r =
        runSimulation(homogeneousCluster(2), reqs, lo, fcfsNodes());
    EXPECT_EQ(r.perNodeCompleted[0], 1u);
    EXPECT_EQ(r.perNodeCompleted[1], 4u);
}

TEST(Dispatcher, LeastBacklogWeighsWorkNotCount)
{
    test::World world;
    world.addModel("long", {10.0}, {0.5});
    world.addModel("short", {0.1}, {0.5});

    // Node 0 holds one *long* request; node 1 holds two *short* ones.
    // Count-based placement would pick node 0; work-based must pick
    // node 1 for the next short request.
    std::vector<Request> reqs = {
        world.request(0, "long", 0.0),  // -> node 0 (both empty)
        world.request(1, "short", 0.0), // -> node 1
        world.request(2, "short", 0.0), // -> node 1 (0.1 < 10)
        world.request(3, "short", 0.0), // -> node 1 still lighter
    };

    LeastBacklogDispatcher lb(world.lut);
    SimResult r =
        runSimulation(homogeneousCluster(2), reqs, lb, fcfsNodes());
    EXPECT_EQ(r.perNodeCompleted[0], 1u);
    EXPECT_EQ(r.perNodeCompleted[1], 3u);
}

TEST(Dispatcher, LeastBacklogPrefersFasterNode)
{
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    std::vector<Request> reqs = {world.request(0, "a", 0.0)};

    SimConfig cfg;
    cfg.nodes = {scaledNodeProfile("slow", 1.0),
                 scaledNodeProfile("fast", 2.0)};
    LeastBacklogDispatcher lb(world.lut);
    SimResult r = runSimulation(cfg, reqs, lb, fcfsNodes());
    EXPECT_EQ(r.perNodeCompleted[0], 0u);
    EXPECT_EQ(r.perNodeCompleted[1], 1u);
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 0.5);
}

// --- admission control -----------------------------------------------------

TEST(Admission, ShedsHopelessRequestsUnderOverload)
{
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    // Tight SLO (2x isolated): with 10 simultaneous arrivals on one
    // node, most of the queue cannot make its deadline.
    std::vector<Request> reqs;
    for (int i = 0; i < 10; ++i)
        reqs.push_back(world.request(i, "a", 0.0, /*slo=*/2.0));

    SimConfig cfg = homogeneousCluster(1);
    cfg.admission.enabled = true;
    cfg.lut = &world.lut;
    RoundRobinDispatcher rr;
    SimResult r = runSimulation(cfg, reqs, rr, fcfsNodes());

    EXPECT_GT(r.metrics.shed, 0u);
    EXPECT_EQ(r.metrics.completed + r.metrics.shed, 10u);
    // Admitted requests were admitted precisely because they fit.
    EXPECT_DOUBLE_EQ(r.metrics.violationRate, 0.0);
    for (const auto& req : reqs) {
        if (req.shed)
            EXPECT_LT(req.finishTime, 0.0);
        else
            EXPECT_GE(req.finishTime, 0.0);
    }
}

TEST(Admission, DisabledAdmitsEverything)
{
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    std::vector<Request> reqs;
    for (int i = 0; i < 10; ++i)
        reqs.push_back(world.request(i, "a", 0.0, /*slo=*/2.0));

    RoundRobinDispatcher rr;
    SimResult r =
        runSimulation(homogeneousCluster(1), reqs, rr, fcfsNodes());
    EXPECT_EQ(r.metrics.shed, 0u);
    EXPECT_EQ(r.metrics.completed, 10u);
    EXPECT_GT(r.metrics.violationRate, 0.0);
}

TEST(Admission, FallsBackToServableNodeBeforeShedding)
{
    // Node 0 is so slow (speed 0.25 -> 4 s isolated) that it can
    // never meet the 3 s deadline; node 1 can. Round-robin keeps
    // proposing node 0, but admission must re-route to the fast node
    // instead of shedding — and must not livelock the rotation.
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    std::vector<Request> reqs;
    for (int i = 0; i < 8; ++i)
        reqs.push_back(world.request(i, "a", 1.1 * i, /*slo=*/3.0));

    SimConfig cfg;
    cfg.nodes = {scaledNodeProfile("slow", 0.25),
                 scaledNodeProfile("fast", 1.0)};
    cfg.admission.enabled = true;
    cfg.lut = &world.lut;
    RoundRobinDispatcher rr;
    SimResult r = runSimulation(cfg, reqs, rr, fcfsNodes());

    // Arrivals are spaced wider than the fast node's service time,
    // so every request is servable there: nothing may be shed.
    EXPECT_EQ(r.metrics.shed, 0u);
    EXPECT_EQ(r.perNodeCompleted[0], 0u);
    EXPECT_EQ(r.perNodeCompleted[1], 8u);
    EXPECT_DOUBLE_EQ(r.metrics.violationRate, 0.0);
}

TEST(Admission, RequiresLut)
{
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    std::vector<Request> reqs = {world.request(0, "a", 0.0)};
    SimConfig cfg = homogeneousCluster(1);
    cfg.admission.enabled = true;
    RoundRobinDispatcher rr;
    EXPECT_EXIT(runSimulation(cfg, reqs, rr, fcfsNodes()),
                ::testing::ExitedWithCode(1), "requires a ModelInfoLut");
}

// --- scenario-level behaviour ----------------------------------------------

TEST(Cluster, DeterministicPerSeed)
{
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 100.0;
    wl.arrival.kind = ArrivalKind::Mmpp;
    wl.numRequests = 200;
    wl.seed = 7;

    ClusterRunConfig cluster;
    cluster.numNodes = 4;
    cluster.dispatcher = "least-backlog";
    cluster.nodeScheduler = "Dysta";

    SimResult a = serve(wl, cluster);
    SimResult b = serve(wl, cluster);
    EXPECT_EQ(metricsDifferences(a.metrics, b.metrics),
              std::vector<std::string>{});
    EXPECT_EQ(a.perNodeCompleted, b.perNodeCompleted);
    EXPECT_EQ(a.decisions, b.decisions);

    wl.seed = 8;
    SimResult c = serve(wl, cluster);
    EXPECT_NE(metricsDifferences(a.metrics, c.metrics),
              std::vector<std::string>{});
}

TEST(Cluster, ThroughputScalesMonotonicallyUnderSaturation)
{
    // Offered load far above one node's capacity (~32 req/s): every
    // added node must raise completed throughput.
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 150.0;
    wl.numRequests = 300;
    wl.seed = 42;

    double prev = 0.0;
    for (size_t n : {1u, 2u, 4u}) {
        ClusterRunConfig cluster;
        cluster.numNodes = n;
        cluster.dispatcher = "least-backlog";
        cluster.nodeScheduler = "Dysta";
        SimResult r = serve(wl, cluster);
        EXPECT_GT(r.metrics.throughput, prev)
            << "throughput did not grow at " << n << " nodes";
        prev = r.metrics.throughput;
    }
}

TEST(Cluster, BacklogAwareBeatsRoundRobinOnBurstyTraffic)
{
    // The paper's sparsity signal lifted to cluster scope: under
    // bursty MMPP arrivals the sparsity-aware least-backlog front-end
    // must not lose to oblivious rotation on SLO violations. FCFS
    // per node isolates the placement decision (a reordering node
    // scheduler can mask front-end mistakes).
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 110.0;
    wl.arrival.kind = ArrivalKind::Mmpp;
    wl.numRequests = 400;
    wl.seed = 42;

    auto violations = [&](const std::string& disp) {
        ClusterRunConfig cluster;
        cluster.numNodes = 4;
        cluster.dispatcher = disp;
        cluster.nodeScheduler = "FCFS";
        return serve(wl, cluster).metrics.violationRate;
    };

    EXPECT_LE(violations("least-backlog"), violations("round-robin"));
}
