/**
 * @file
 * Tests for heterogeneous clusters, migration and node availability:
 * hardware-class profiles and fleet specs, per-node-speed execution,
 * drain/fail/recover semantics (re-dispatch, restart, shed), the
 * work-stealing dispatcher's migrations, dispatcher tie-break
 * determinism, and bit-identical repeated/parallel hetero runs.
 */

#include <gtest/gtest.h>

#include <memory>

#include "exp/sweep.hh"
#include "sched/fcfs.hh"
#include "serve/dispatcher.hh"
#include "sim/core.hh"
#include "test_helpers.hh"
#include "workload/cluster_spec.hh"

using namespace dysta;

namespace {

PolicyFactory
fcfsNodes()
{
    return [](const NodeProfile&, int) {
        return std::make_unique<FcfsScheduler>();
    };
}

/** Two-layer 2-second model, single sample (estimators are exact). */
test::World&
world()
{
    static test::World* w = [] {
        auto* built = new test::World();
        built->addModel("m", {1.0, 1.0}, {0.5, 0.5});
        return built;
    }();
    return *w;
}

std::vector<Request>
requestsAt(std::vector<double> arrivals, double slo_mult = 10.0)
{
    std::vector<Request> reqs;
    for (size_t i = 0; i < arrivals.size(); ++i)
        reqs.push_back(world().request(static_cast<int>(i), "m",
                                       arrivals[i], slo_mult));
    return reqs;
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

} // namespace

// --- hardware classes and fleet specs --------------------------------------

TEST(NodeHwTest, SpeedFactorsDeriveFromHardware)
{
    EXPECT_DOUBLE_EQ(hwSpeedFactor(referenceNodeHw()), 1.0);
    EXPECT_DOUBLE_EQ(hwSpeedFactor(hwClassByName("sanger")), 1.0);
    EXPECT_DOUBLE_EQ(hwSpeedFactor(hwClassByName("sanger-lite")),
                     0.5);
    // Slower classes are genuinely slower, but still positive.
    for (const std::string& cls : hwClassNames()) {
        double speed = hwSpeedFactor(hwClassByName(cls));
        EXPECT_GT(speed, 0.0) << cls;
        EXPECT_LE(speed, 1.0) << cls;
    }
    EXPECT_LT(hwSpeedFactor(hwClassByName("eyeriss-xl")), 0.5);
    EXPECT_LT(hwSpeedFactor(hwClassByName("eyeriss-v2")),
              hwSpeedFactor(hwClassByName("eyeriss-xl")));
}

TEST(NodeHwTest, FleetSpecParsesClassesAndCounts)
{
    std::vector<NodeProfile> fleet =
        fleetFromSpec("sanger:2,eyeriss-xl");
    ASSERT_EQ(fleet.size(), 3u);
    EXPECT_EQ(fleet[0].name, "sanger0");
    EXPECT_EQ(fleet[1].name, "sanger1");
    EXPECT_EQ(fleet[2].name, "eyeriss-xl0");
    EXPECT_EQ(fleet[0].hw.hwClass, "sanger");
    EXPECT_EQ(fleet[2].hw.hwClass, "eyeriss-xl");
    EXPECT_DOUBLE_EQ(fleet[0].speedFactor, 1.0);
    EXPECT_LT(fleet[2].speedFactor, 1.0);
}

TEST(NodeHwTest, RepeatedClassSegmentsKeepNamesUnique)
{
    std::vector<NodeProfile> fleet =
        fleetFromSpec("sanger:1,eyeriss-xl:1,sanger:1");
    ASSERT_EQ(fleet.size(), 3u);
    EXPECT_EQ(fleet[0].name, "sanger0");
    EXPECT_EQ(fleet[1].name, "eyeriss-xl0");
    EXPECT_EQ(fleet[2].name, "sanger1");
}

TEST(NodeHwTest, MalformedSpecsAreFatal)
{
    EXPECT_DEATH(fleetFromSpec("sanger:0"), "malformed count");
    EXPECT_DEATH(fleetFromSpec("sanger:2000000000"),
                 "has more than 65536 nodes");
    EXPECT_DEATH(fleetFromSpec("sanger:65536,sanger:1"),
                 "has more than 65536 nodes");
    EXPECT_DEATH(nodeEventsFromSpec("fail@:0"), "malformed time");
    EXPECT_DEATH(nodeEventsFromSpec("fail@1.0:x"), "malformed node");
}

TEST(NodeHwTest, NodeEventSpecParses)
{
    std::vector<NodeEvent> events =
        nodeEventsFromSpec("fail@1.5:0,recover@4.0:0,drain@2.5:1");
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, NodeEventKind::Fail);
    EXPECT_DOUBLE_EQ(events[0].time, 1.5);
    EXPECT_EQ(events[0].node, 0);
    EXPECT_EQ(events[1].kind, NodeEventKind::Recover);
    EXPECT_EQ(events[2].kind, NodeEventKind::Drain);
    EXPECT_EQ(events[2].node, 1);
}

TEST(ScaledEstimatorTest, RescalesIntoNodeLocalSeconds)
{
    LutEstimator base(world().lut);
    ScaledEstimator half(base, 0.5);
    Request req = world().request(0, "m", 0.0);
    EXPECT_DOUBLE_EQ(half.isolated(req), base.isolated(req) * 2.0);
    EXPECT_DOUBLE_EQ(half.remaining(req), base.remaining(req) * 2.0);
}

TEST(NodeCapabilityTest, ViewTracksStateSpeedAndQueueDepth)
{
    SimNode node(3, nodeProfileFromHw("el0", hwClassByName("sanger-lite")),
                 std::make_unique<FcfsScheduler>());
    NodeCapability cap = node.capability();
    EXPECT_EQ(cap.id, 3);
    EXPECT_EQ(cap.state, NodeState::Up);
    EXPECT_TRUE(cap.available);
    EXPECT_EQ(cap.hwClass, "sanger-lite");
    EXPECT_DOUBLE_EQ(cap.speedFactor, 0.5);
    EXPECT_EQ(cap.outstanding, 0u);

    Request req = world().request(0, "m", 0.0);
    node.enqueue(&req, 0.0);
    EXPECT_EQ(node.capability().outstanding, 1u);

    node.drain();
    cap = node.capability();
    EXPECT_EQ(cap.state, NodeState::Draining);
    EXPECT_FALSE(cap.available);
    node.recover();
    EXPECT_TRUE(node.capability().available);
    node.fail(0.0);
    cap = node.capability();
    EXPECT_EQ(cap.state, NodeState::Down);
    EXPECT_FALSE(cap.available);
    EXPECT_EQ(cap.outstanding, 0u);
}

// --- heterogeneous execution ------------------------------------------------

TEST(HeteroCluster, SpeedFactorScalesExecution)
{
    // One fast node (2x): the 2-second trace finishes in 1 second.
    SimConfig cfg;
    cfg.nodes = {scaledNodeProfile("fast", 2.0)};
    std::vector<Request> reqs = requestsAt({0.0});
    SingleNodeDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());
    EXPECT_EQ(r.metrics.completed, 1u);
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 1.0);
}

TEST(HeteroCluster, CapabilityAwarePrefersFasterNode)
{
    // Empty fleet, one arrival: the capability-aware policy charges
    // the request its node-local isolated latency, so the fast node
    // wins even though both are idle.
    SimConfig cfg;
    cfg.nodes = {scaledNodeProfile("slow", 0.5),
                 scaledNodeProfile("fast", 1.0)};
    std::vector<Request> reqs = requestsAt({0.0});
    CapabilityAwareDispatcher disp(world().lut);
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());
    ASSERT_EQ(r.perNodeCompleted.size(), 2u);
    EXPECT_EQ(r.perNodeCompleted[0], 0u);
    EXPECT_EQ(r.perNodeCompleted[1], 1u);
}

// --- drain / fail / recover -------------------------------------------------

TEST(NodeEvents, DrainedNodeAcceptsNoNewWorkButFinishesQueue)
{
    SimConfig cfg = homogeneousCluster(2);
    // Node 1 drains at t=0.25 with one request in flight; later
    // arrivals must all land on node 0.
    cfg.nodeEvents = {{0.25, 1, NodeEventKind::Drain}};
    std::vector<Request> reqs = requestsAt({0.0, 0.1, 0.5, 0.6});
    LeastOutstandingDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());
    EXPECT_EQ(r.metrics.completed, 4u);
    EXPECT_EQ(r.metrics.shed, 0u);
    // The draining node finished exactly the one request it held.
    EXPECT_EQ(r.perNodeCompleted[1], 1u);
    EXPECT_EQ(r.perNodeCompleted[0], 3u);
}

TEST(NodeEvents, FailedNodeRedispatchesQueuedWork)
{
    SimConfig cfg = homogeneousCluster(2);
    // r0 -> node 0, r1 -> node 1 (least-outstanding, ties by id).
    // Node 1 fails at t=0.5 with r1 mid-first-layer; under Restart
    // it re-runs from layer 0 on node 0 after r0 (FCFS), finishing
    // at 4.0 instead of 2.0.
    cfg.nodeEvents = {{0.5, 1, NodeEventKind::Fail}};
    std::vector<Request> reqs = requestsAt({0.0, 0.0});
    LeastOutstandingDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());
    EXPECT_EQ(r.metrics.completed, 2u);
    EXPECT_EQ(r.metrics.shed, 0u);
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 2.0);
    EXPECT_DOUBLE_EQ(reqs[1].finishTime, 4.0);
    EXPECT_EQ(r.perNodeCompleted[0], 2u);
    EXPECT_EQ(r.perNodeCompleted[1], 0u);
}

TEST(NodeEvents, ShedPolicyDropsStartedWorkOnFailure)
{
    SimConfig cfg = homogeneousCluster(2);
    cfg.nodeEvents = {{0.5, 1, NodeEventKind::Fail}};
    cfg.onFailure = RestartPolicy::Shed;
    std::vector<Request> reqs = requestsAt({0.0, 0.0});
    LeastOutstandingDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());
    EXPECT_EQ(r.metrics.completed, 1u);
    EXPECT_EQ(r.metrics.shed, 1u);
    EXPECT_TRUE(reqs[1].shed);
    EXPECT_LT(reqs[1].finishTime, 0.0);
    // Shed requests count as SLO misses: with zero violations among
    // the completed, the miss rate is exactly the shed share.
    EXPECT_DOUBLE_EQ(r.metrics.sloMissRate, 0.5);
    EXPECT_GE(r.metrics.sloMissRate, r.metrics.violationRate);
}

TEST(NodeEvents, QueuedNotStartedWorkAlwaysRedispatches)
{
    // Both requests land on node 1 (round-robin: r0 -> 0, r1 -> 1,
    // r2 -> 0... use three so node 1 holds a queued-not-started
    // request when it fails). r1 runs on node 1, r3 queues behind
    // it; at the failure r3 has executed nothing, so it re-
    // dispatches even under the Shed policy.
    SimConfig cfg = homogeneousCluster(2);
    cfg.nodeEvents = {{0.5, 1, NodeEventKind::Fail}};
    cfg.onFailure = RestartPolicy::Shed;
    std::vector<Request> reqs = requestsAt({0.0, 0.0, 0.0, 0.0});
    RoundRobinDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());
    // r1 was in flight on node 1 -> shed; r3 was queued -> rescued.
    EXPECT_EQ(r.metrics.shed, 1u);
    EXPECT_TRUE(reqs[1].shed);
    EXPECT_EQ(r.metrics.completed, 3u);
    EXPECT_GE(reqs[3].finishTime, 0.0);
    EXPECT_EQ(r.perNodeCompleted[0], 3u);
}

TEST(NodeEvents, WholeFleetDownShedsArrivals)
{
    SimConfig cfg = homogeneousCluster(1);
    cfg.nodeEvents = {{0.5, 0, NodeEventKind::Fail}};
    std::vector<Request> reqs = requestsAt({0.0, 1.0, 1.5});
    SingleNodeDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());
    // r0 restarts nowhere (no node available) and later arrivals
    // find the front door closed: everything is shed.
    EXPECT_EQ(r.metrics.completed, 0u);
    EXPECT_EQ(r.metrics.shed, 3u);
    EXPECT_DOUBLE_EQ(r.metrics.sloMissRate, 1.0);
}

TEST(NodeEvents, UnknownNodeIsFatal)
{
    SimConfig cfg = homogeneousCluster(2);
    cfg.nodeEvents = {{1.0, 5, NodeEventKind::Fail}};
    std::vector<Request> reqs = requestsAt({0.0});
    RoundRobinDispatcher disp;
    EXPECT_EXIT(runSimulation(cfg, reqs, disp, fcfsNodes()),
                ::testing::ExitedWithCode(1),
                "unknown node 5 \\(fleet has 2 nodes\\)");
}

TEST(NodeEvents, RecoveredNodeServesAgain)
{
    SimConfig cfg = homogeneousCluster(2);
    cfg.nodeEvents = {{0.0, 1, NodeEventKind::Fail},
                      {1.0, 1, NodeEventKind::Recover}};
    // Arrivals before recovery go to node 0 (node 1 is down: the
    // t=0 failure sorts after the t=0 arrivals but before any of
    // these); the post-recovery arrival lands on idle node 1.
    std::vector<Request> reqs = requestsAt({0.1, 0.2, 1.5});
    LeastOutstandingDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());
    EXPECT_EQ(r.metrics.completed, 3u);
    EXPECT_EQ(r.metrics.shed, 0u);
    EXPECT_EQ(r.perNodeCompleted[1], 1u);
}

TEST(NodeEvents, FailWhileDrainingDisplacesTheHeldRequest)
{
    // Node 1 drains at 0.25 holding r1, then fails at 0.5 before the
    // drain empties: the in-flight request is displaced like any
    // other failure victim and restarts on node 0, and the
    // drained-then-failed node never serves again.
    SimConfig cfg = homogeneousCluster(2);
    cfg.nodeEvents = {{0.25, 1, NodeEventKind::Drain},
                      {0.5, 1, NodeEventKind::Fail}};
    std::vector<Request> reqs = requestsAt({0.0, 0.0});
    LeastOutstandingDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());
    EXPECT_EQ(r.metrics.completed, 2u);
    EXPECT_EQ(r.metrics.shed, 0u);
    // r1 restarted from layer 0 behind r0 on node 0.
    EXPECT_DOUBLE_EQ(reqs[1].finishTime, 4.0);
    EXPECT_EQ(r.perNodeCompleted[0], 2u);
    EXPECT_EQ(r.perNodeCompleted[1], 0u);
}

TEST(NodeEvents, RecoverOnHealthyNodeIsANoOp)
{
    // A recover with no preceding fail (and one on a merely draining
    // node) must not perturb the schedule or invent repair spells.
    auto run = [&](std::vector<NodeEvent> events) {
        SimConfig cfg = homogeneousCluster(2);
        cfg.nodeEvents = std::move(events);
        std::vector<Request> reqs =
            requestsAt({0.0, 0.0, 0.3, 0.4});
        LeastOutstandingDispatcher disp;
        return runSimulation(cfg, reqs, disp, fcfsNodes());
    };
    SimResult base = run({});
    SimResult up = run({{0.5, 1, NodeEventKind::Recover}});
    EXPECT_EQ(metricsDifferences(base.metrics, up.metrics),
              std::vector<std::string>{});
    EXPECT_EQ(base.perNodeCompleted, up.perNodeCompleted);
    // Recovering a draining node un-drains it: node 1 takes the
    // r3 arrival it would have refused while draining (r2 broke the
    // tie to node 0, so node 0 is deeper when r3 arrives).
    SimResult drained =
        run({{0.1, 1, NodeEventKind::Drain},
             {0.2, 1, NodeEventKind::Recover}});
    EXPECT_EQ(drained.metrics.completed, 4u);
    EXPECT_EQ(drained.perNodeCompleted[1], 2u);
}

TEST(NodeEvents, BackToBackFailsActLikeASingleFailure)
{
    // A second fail on an already-down node (chaos composing with a
    // scripted event) opens no new down spell and displaces nothing:
    // metrics match the single-failure run exactly.
    auto run = [&](std::vector<NodeEvent> events) {
        SimConfig cfg = homogeneousCluster(2);
        cfg.nodeEvents = std::move(events);
        // A tier activates resilience accounting so the fail/repair
        // counters are observable; the schedule is untouched.
        cfg.tierWeights = {1.0};
        std::vector<Request> reqs = requestsAt({0.0, 0.0});
        LeastOutstandingDispatcher disp;
        return runSimulation(cfg, reqs, disp, fcfsNodes());
    };
    SimResult once = run({{0.5, 1, NodeEventKind::Fail},
                          {1.5, 1, NodeEventKind::Recover}});
    SimResult twice = run({{0.5, 1, NodeEventKind::Fail},
                           {0.7, 1, NodeEventKind::Fail},
                           {1.5, 1, NodeEventKind::Recover}});
    EXPECT_EQ(metricsDifferences(once.metrics, twice.metrics),
              std::vector<std::string>{});
    EXPECT_EQ(once.perNodeCompleted, twice.perNodeCompleted);
    EXPECT_DOUBLE_EQ(once.metrics.resilience.failures, 1.0);
    EXPECT_DOUBLE_EQ(twice.metrics.resilience.failures, 1.0);
    EXPECT_DOUBLE_EQ(twice.metrics.resilience.mttr, 1.0);
    EXPECT_DOUBLE_EQ(once.metrics.resilience.availability,
                     twice.metrics.resilience.availability);
}

// --- work stealing ----------------------------------------------------------

TEST(WorkStealing, MigratesQueuedWorkToRecoveredNode)
{
    // All four arrivals land on node 0 while node 1 is down; when
    // node 1 recovers at t=0.3, the work-stealing dispatcher must
    // move queued-not-started requests onto it. Round-robin leaves
    // the recovered node idle (no arrivals after recovery).
    auto run = [&](Dispatcher& disp) {
        SimConfig cfg = homogeneousCluster(2);
        cfg.nodeEvents = {{0.0, 1, NodeEventKind::Fail},
                          {0.3, 1, NodeEventKind::Recover}};
        std::vector<Request> reqs =
            requestsAt({0.05, 0.1, 0.15, 0.2});
        return runSimulation(cfg, reqs, disp, fcfsNodes());
    };

    WorkStealingConfig scfg;
    scfg.imbalanceRatio = 1.5;
    WorkStealingDispatcher stealing(world().lut, scfg);
    SimResult ws = run(stealing);
    EXPECT_EQ(ws.metrics.completed, 4u);
    EXPECT_GT(ws.perNodeCompleted[1], 0u);

    RoundRobinDispatcher rr;
    SimResult base = run(rr);
    EXPECT_EQ(base.metrics.completed, 4u);
    EXPECT_EQ(base.perNodeCompleted[1], 0u);
    // Spreading the backlog over both nodes finishes sooner.
    EXPECT_LT(ws.metrics.makespan, base.metrics.makespan);
}

TEST(WorkStealing, RebalanceProposesOnlyUnstartedRequests)
{
    // Direct unit check of the Migration contract: build two nodes,
    // overload node 0, and inspect the proposed moves.
    std::vector<std::unique_ptr<SimNode>> nodes;
    nodes.push_back(std::make_unique<SimNode>(
        0, referenceNodeProfile("n0"),
        std::make_unique<FcfsScheduler>()));
    nodes.push_back(std::make_unique<SimNode>(
        1, referenceNodeProfile("n1"),
        std::make_unique<FcfsScheduler>()));

    std::vector<Request> reqs = requestsAt({0.0, 0.0, 0.0});
    for (auto& req : reqs)
        nodes[0]->enqueue(&req, 0.0);
    nodes[0]->beginStep(0.0); // r0 is now in flight

    WorkStealingConfig scfg;
    scfg.imbalanceRatio = 1.0;
    WorkStealingDispatcher disp(world().lut, scfg);
    std::vector<Migration> moves = disp.rebalance(nodes, 0.0);
    ASSERT_FALSE(moves.empty());
    for (const Migration& m : moves) {
        EXPECT_EQ(m.from, 0u);
        EXPECT_EQ(m.to, 1u);
        EXPECT_NE(m.req, &reqs[0]); // never the running request
        EXPECT_EQ(m.req->nextLayer, 0u);
    }
    // LIFO: the most recently enqueued unstarted request goes first.
    EXPECT_EQ(moves[0].req, &reqs[2]);
}

// --- dispatcher determinism -------------------------------------------------

TEST(DispatcherDeterminism, TiesBreakByLowestNodeId)
{
    std::vector<std::unique_ptr<SimNode>> nodes;
    for (int i = 0; i < 3; ++i) {
        nodes.push_back(std::make_unique<SimNode>(
            i, referenceNodeProfile("n" + std::to_string(i)),
            std::make_unique<FcfsScheduler>()));
    }
    Request probe = world().request(99, "m", 0.0);

    LeastOutstandingDispatcher lo;
    LeastBacklogDispatcher lb(world().lut);
    CapabilityAwareDispatcher ca(world().lut);
    WorkStealingDispatcher ws(world().lut);
    // All-idle, all-equal fleet: every estimator-driven policy must
    // resolve the three-way tie to node 0.
    EXPECT_EQ(lo.selectNode(probe, nodes, 0.0), 0u);
    EXPECT_EQ(lb.selectNode(probe, nodes, 0.0), 0u);
    EXPECT_EQ(ca.selectNode(probe, nodes, 0.0), 0u);
    EXPECT_EQ(ws.selectNode(probe, nodes, 0.0), 0u);

    // An unavailable node 0 shifts every policy to node 1.
    nodes[0]->drain();
    EXPECT_EQ(lo.selectNode(probe, nodes, 0.0), 1u);
    EXPECT_EQ(lb.selectNode(probe, nodes, 0.0), 1u);
    EXPECT_EQ(ca.selectNode(probe, nodes, 0.0), 1u);
    EXPECT_EQ(ws.selectNode(probe, nodes, 0.0), 1u);
    RoundRobinDispatcher rr;
    EXPECT_EQ(rr.selectNode(probe, nodes, 0.0), 1u);
    EXPECT_EQ(rr.selectNode(probe, nodes, 0.0), 2u);
    EXPECT_EQ(rr.selectNode(probe, nodes, 0.0), 1u);
}

TEST(DispatcherDeterminism, HeteroRunsAreSeedReproducible)
{
    // A full heterogeneous scenario (mixed fleet, MMPP arrivals,
    // failure + recovery, work stealing) run twice must produce
    // bit-identical metrics.
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 80.0;
    cell.workload.arrival.kind = ArrivalKind::Mmpp;
    cell.workload.numRequests = 80;
    cell.clusterMode = true;
    cell.cluster.nodes = fleetFromSpec("sanger:2,eyeriss-xl:2");
    cell.cluster.dispatcher = "work-stealing";
    cell.cluster.nodeEvents =
        nodeEventsFromSpec("fail@0.5:0,recover@1.5:0");

    SweepCellResult a = runSweepCell(ctx(), cell);
    SweepCellResult b = runSweepCell(ctx(), cell);
    EXPECT_EQ(metricsDifferences(a.metrics, b.metrics),
              std::vector<std::string>{});
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.preemptions, b.preemptions);
}

TEST(DispatcherDeterminism, HeteroGridBitIdenticalAcrossJobs)
{
    std::vector<SweepCell> cells;
    for (const char* disp :
         {"round-robin", "least-outstanding", "least-backlog",
          "capability-aware", "work-stealing"}) {
        SweepCell cell;
        cell.workload.kind = WorkloadKind::MultiAttNN;
        cell.workload.arrivalRate = 70.0;
        cell.workload.numRequests = 60;
        cell.clusterMode = true;
        cell.cluster.nodes = fleetFromSpec("sanger:1,eyeriss-xl:2");
        cell.cluster.dispatcher = disp;
        cell.cluster.nodeEvents =
            nodeEventsFromSpec("drain@0.5:1,recover@1.0:1");
        cells.push_back(cell);
    }
    SweepRunner serial(ctx(), 1);
    SweepRunner parallel(ctx(), 4);
    std::vector<SweepCellResult> a = serial.run(cells);
    std::vector<SweepCellResult> b = parallel.run(cells);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(metricsDifferences(a[i].metrics, b[i].metrics),
                  std::vector<std::string>{}) << i;
        EXPECT_EQ(a[i].decisions, b[i].decisions) << i;
    }
}

TEST(HeteroCluster, AdmissionShedsRaiseSloMissAboveViolation)
{
    // Saturate a weak mixed fleet with admission control on: sheds
    // occur, and the SLO-miss rate must dominate the violation rate.
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 300.0;
    cell.workload.numRequests = 120;
    cell.workload.sloMultiplier = 3.0;
    cell.clusterMode = true;
    cell.cluster.nodes = fleetFromSpec("sanger-lite:1,eyeriss-xl:1");
    cell.cluster.dispatcher = "capability-aware";
    cell.cluster.admission.enabled = true;
    SweepCellResult r = runSweepCell(ctx(), cell);
    ASSERT_GT(r.metrics.shed, 0u)
        << "scenario not saturating; tighten the SLO";
    EXPECT_GT(r.metrics.sloMissRate, r.metrics.violationRate);
}
