/**
 * @file
 * Tests of the chaos engine (src/chaos/): spec-grammar parsing,
 * deterministic tier assignment, the MTBF alternating-renewal fault
 * injector (node and domain scope), deadline timeouts with
 * budget-capped retries, hedged dispatch with first-completion-wins,
 * tiered brown-out shedding, availability/MTTR accounting, the
 * telemetry ring buffer, and bit-identical chaos replays (same-seed,
 * serial-vs-parallel, and resilience staying inert when unused).
 */

#include <gtest/gtest.h>

#include <memory>

#include "api/registry.hh"
#include "chaos/chaos.hh"
#include "chaos/failure.hh"
#include "exp/sweep.hh"
#include "obs/telemetry.hh"
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

/** Drain `n` events from a failure process (asserts availability). */
std::vector<NodeEvent>
drawEvents(FailureProcess& proc, size_t n)
{
    std::vector<NodeEvent> events;
    NodeEvent ev;
    for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(proc.next(ev));
        events.push_back(ev);
    }
    return events;
}

} // namespace

// --- spec grammars ----------------------------------------------------------

TEST(ChaosSpecs, DistributionsParseWithOptionalUnits)
{
    ChaosDist exp = chaosDistFromSpec("exp@3600");
    EXPECT_EQ(exp.kind, ChaosDist::Kind::Exp);
    EXPECT_DOUBLE_EQ(exp.scale, 3600.0);
    // A trailing 's' unit is accepted everywhere.
    EXPECT_DOUBLE_EQ(chaosDistFromSpec("exp@3600s").scale, 3600.0);

    ChaosDist wb = chaosDistFromSpec("weibull@100:1.5");
    EXPECT_EQ(wb.kind, ChaosDist::Kind::Weibull);
    EXPECT_DOUBLE_EQ(wb.scale, 100.0);
    EXPECT_DOUBLE_EQ(wb.shape, 1.5);

    ChaosDist fixed = chaosDistFromSpec("fixed@60s");
    EXPECT_EQ(fixed.kind, ChaosDist::Kind::Fixed);
    EXPECT_DOUBLE_EQ(fixed.scale, 60.0);

    // str() round-trips through the parser.
    EXPECT_EQ(chaosDistFromSpec(wb.str()).str(), wb.str());
}

TEST(ChaosSpecs, MalformedDistributionsAreFatal)
{
    EXPECT_DEATH(chaosDistFromSpec("exp"), "expected exp@M");
    EXPECT_DEATH(chaosDistFromSpec("exp@0"), "positive number");
    EXPECT_DEATH(chaosDistFromSpec("exp@-5"), "positive number");
    EXPECT_DEATH(chaosDistFromSpec("gauss@5"), "unknown family");
    EXPECT_DEATH(chaosDistFromSpec("weibull@5"),
                 "weibull needs scale and shape");
}

TEST(ChaosSpecs, ResilienceKnobsParseAndEmptyDisables)
{
    EXPECT_FALSE(retryConfigFromSpec("").enabled);
    EXPECT_FALSE(hedgeConfigFromSpec("").enabled);
    EXPECT_FALSE(brownoutConfigFromSpec("").enabled);
    EXPECT_TRUE(tierWeightsFromSpec("").empty());

    RetryConfig retry = retryConfigFromSpec(
        "retry:max=3,backoff=2,timeout=0.5,budget=0.5");
    EXPECT_TRUE(retry.enabled);
    EXPECT_EQ(retry.maxRetries, 3);
    EXPECT_DOUBLE_EQ(retry.backoff, 2.0);
    EXPECT_DOUBLE_EQ(retry.timeoutFactor, 0.5);
    EXPECT_DOUBLE_EQ(retry.budget, 0.5);

    HedgeConfig hedge =
        hedgeConfigFromSpec("hedge:quantile=0.9,min_samples=8");
    EXPECT_TRUE(hedge.enabled);
    EXPECT_DOUBLE_EQ(hedge.quantile, 0.9);
    EXPECT_EQ(hedge.minSamples, 8);

    BrownoutConfig brownout =
        brownoutConfigFromSpec("brownout:step=0.25");
    EXPECT_TRUE(brownout.enabled);
    EXPECT_DOUBLE_EQ(brownout.step, 0.25);

    std::vector<double> tiers = tierWeightsFromSpec("0.6,0.3,0.1");
    ASSERT_EQ(tiers.size(), 3u);
    EXPECT_DOUBLE_EQ(tiers[0], 0.6);
    EXPECT_DOUBLE_EQ(tiers[2], 0.1);
}

TEST(ChaosSpecs, MalformedKnobsAreFatal)
{
    EXPECT_DEATH(retryConfigFromSpec("retry:max=-1"), "max must be");
    EXPECT_DEATH(retryConfigFromSpec("retry:backoff=0.5"),
                 "backoff must be");
    EXPECT_DEATH(retryConfigFromSpec("retry:nope=1"),
                 "unknown parameter");
    EXPECT_DEATH(hedgeConfigFromSpec("hedge:quantile=1.5"),
                 "quantile must be");
    EXPECT_DEATH(brownoutConfigFromSpec("brownout:step=-1"),
                 "step must be");
    EXPECT_DEATH(tierWeightsFromSpec("0.5,-0.5"),
                 "positive numbers");
    EXPECT_DEATH(tierWeightsFromSpec("0.5,abc"), "positive numbers");
}

TEST(ChaosSpecs, TierAssignmentIsDeterministicAndCoversAllTiers)
{
    std::vector<double> weights = {0.5, 0.3, 0.2};
    std::vector<int> counts(weights.size(), 0);
    for (int id = 0; id < 2000; ++id) {
        int tier = tierOfRequest(id, weights, 42);
        ASSERT_GE(tier, 0);
        ASSERT_LT(tier, 3);
        // Replays hash to the same tier.
        EXPECT_EQ(tier, tierOfRequest(id, weights, 42));
        ++counts[static_cast<size_t>(tier)];
    }
    // Every tier is populated, roughly by weight (coarse bounds: the
    // hash is fixed, so this is a regression check, not statistics).
    EXPECT_GT(counts[0], counts[2]);
    for (int c : counts)
        EXPECT_GT(c, 100);
    // Fewer than two tiers collapses to tier 0.
    EXPECT_EQ(tierOfRequest(7, {}, 42), 0);
    EXPECT_EQ(tierOfRequest(7, {1.0}, 42), 0);
}

// --- MTBF fault injection ---------------------------------------------------

TEST(MtbfProcess, FixedDwellsAlternateFailRecoverPerNode)
{
    MtbfFailureProcess::Config cfg;
    cfg.up = chaosDistFromSpec("fixed@5");
    cfg.down = chaosDistFromSpec("fixed@1");
    MtbfFailureProcess proc(cfg);
    proc.reset(fleetFromSpec("sanger:2"), 7);

    // Both nodes fail at t=5, recover at t=6, fail again at t=11;
    // same-time ties resolve to the lowest unit index.
    std::vector<NodeEvent> events = drawEvents(proc, 6);
    double times[] = {5.0, 5.0, 6.0, 6.0, 11.0, 11.0};
    int nodes[] = {0, 1, 0, 1, 0, 1};
    NodeEventKind kinds[] = {NodeEventKind::Fail, NodeEventKind::Fail,
                             NodeEventKind::Recover,
                             NodeEventKind::Recover,
                             NodeEventKind::Fail, NodeEventKind::Fail};
    for (size_t i = 0; i < 6; ++i) {
        EXPECT_DOUBLE_EQ(events[i].time, times[i]) << i;
        EXPECT_EQ(events[i].node, nodes[i]) << i;
        EXPECT_EQ(events[i].kind, kinds[i]) << i;
    }
}

TEST(MtbfProcess, DomainScopeFansOutWholeRacksTogether)
{
    MtbfFailureProcess::Config cfg;
    cfg.up = chaosDistFromSpec("fixed@5");
    cfg.down = chaosDistFromSpec("fixed@1");
    cfg.byDomain = true;
    MtbfFailureProcess proc(cfg);
    // Nodes 0+1 share rackA; node 2 is alone in rackB.
    proc.reset(fleetFromSpec("sanger:2@rackA,sanger:1@rackB"), 7);

    std::vector<NodeEvent> events = drawEvents(proc, 6);
    // rackA's fail fans out to both members at the same instant
    // (ascending node id), then rackB follows.
    EXPECT_DOUBLE_EQ(events[0].time, 5.0);
    EXPECT_EQ(events[0].node, 0);
    EXPECT_EQ(events[1].node, 1);
    EXPECT_EQ(events[1].kind, NodeEventKind::Fail);
    EXPECT_EQ(events[2].node, 2);
    EXPECT_DOUBLE_EQ(events[2].time, 5.0);
    for (int i = 3; i < 6; ++i) {
        EXPECT_EQ(events[static_cast<size_t>(i)].kind,
                  NodeEventKind::Recover);
        EXPECT_DOUBLE_EQ(events[static_cast<size_t>(i)].time, 6.0);
    }
}

TEST(MtbfProcess, StochasticStreamIsSeedDeterministic)
{
    std::unique_ptr<FailureProcess> proc =
        PolicyRegistry::global().makeFailureProcess(
            "mtbf:up=exp@10,down=weibull@2:1.5");
    std::vector<NodeProfile> fleet = fleetFromSpec("sanger:3");

    proc->reset(fleet, 42);
    std::vector<NodeEvent> a = drawEvents(*proc, 20);
    proc->reset(fleet, 42);
    std::vector<NodeEvent> b = drawEvents(*proc, 20);
    proc->reset(fleet, 43);
    std::vector<NodeEvent> c = drawEvents(*proc, 20);

    bool differs = false;
    double last = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].time, b[i].time) << i;
        EXPECT_EQ(a[i].node, b[i].node) << i;
        EXPECT_EQ(a[i].kind, b[i].kind) << i;
        // The contract the core's one-pending-event pump relies on.
        EXPECT_GE(a[i].time, last) << i;
        last = a[i].time;
        differs |= a[i].time != c[i].time;
    }
    EXPECT_TRUE(differs) << "seed does not vary the fault timeline";
}

TEST(MtbfProcess, RegistrySpecsValidateStrictly)
{
    PolicyRegistry& registry = PolicyRegistry::global();
    EXPECT_EQ(registry.makeFailureProcess("mtbf")->name(), "mtbf");
    EXPECT_DEATH(registry.makeFailureProcess("mtbf:scope=rack"),
                 "scope must be");
    EXPECT_DEATH(registry.makeFailureProcess("mtbf:start=-1"),
                 "start must be");
    EXPECT_DEATH(registry.makeFailureProcess("mtbf:foo=1"),
                 "unknown parameter");
    EXPECT_DEATH(registry.makeFailureProcess("lightning"),
                 "unknown failure process");
}

TEST(MtbfProcess, FleetSpecCarriesFaultDomains)
{
    std::vector<NodeProfile> fleet =
        fleetFromSpec("sanger:2@rack0,eyeriss-xl@rack1,sanger");
    ASSERT_EQ(fleet.size(), 4u);
    EXPECT_EQ(fleet[0].domain, "rack0");
    EXPECT_EQ(fleet[1].domain, "rack0");
    EXPECT_EQ(fleet[2].domain, "rack1");
    EXPECT_EQ(fleet[3].domain, "");
    EXPECT_DEATH(fleetFromSpec("sanger:2@"), "empty domain");
}

// --- deadline timeouts and retries ------------------------------------------

TEST(RetryPolicy, TimedOutAttemptRetriesAndMeetsDeadline)
{
    // One reference node, two back-to-back 2s requests, 5s SLO
    // window. r1 starts at t=2 behind r0; its first attempt times
    // out at 0.5 * 5 = 2.5 mid-layer, restarts immediately (the node
    // is free again after the cancel) and finishes at 4.5 — inside
    // the 5s deadline that the un-retried schedule (finish 4.0)
    // would also have met, but exercising the full cancel/re-dispatch
    // path deterministically.
    SimConfig cfg = homogeneousCluster(1);
    cfg.retry.enabled = true;
    cfg.retry.maxRetries = 2;
    cfg.retry.backoff = 2.0;
    cfg.retry.timeoutFactor = 0.5;
    cfg.retry.budget = 1.0;
    std::vector<Request> reqs = requestsAt({0.0, 0.0}, 2.5);
    SingleNodeDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());

    EXPECT_EQ(r.metrics.completed, 2u);
    EXPECT_EQ(r.metrics.shed, 0u);
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 2.0);
    EXPECT_DOUBLE_EQ(reqs[1].finishTime, 4.5);
    const ResilienceStats& rs = r.metrics.resilience;
    ASSERT_TRUE(rs.active);
    EXPECT_DOUBLE_EQ(rs.timeouts, 1.0);
    EXPECT_DOUBLE_EQ(rs.retries, 1.0);
    EXPECT_DOUBLE_EQ(rs.retryAmplification, 1.5);
}

TEST(RetryPolicy, ExhaustedAttemptsShedTheRequest)
{
    // A 1s deadline on a 2s model can never complete: the first
    // attempt times out at 1.0, the single allowed retry at
    // 1.0 + 1.0 * 1.5 = 2.5, and the request is shed.
    SimConfig cfg = homogeneousCluster(1);
    cfg.retry.enabled = true;
    cfg.retry.maxRetries = 1;
    cfg.retry.backoff = 1.5;
    cfg.retry.timeoutFactor = 1.0;
    cfg.retry.budget = 1.0;
    std::vector<Request> reqs = requestsAt({0.0}, 0.5);
    SingleNodeDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());

    EXPECT_EQ(r.metrics.completed, 0u);
    EXPECT_EQ(r.metrics.shed, 1u);
    EXPECT_TRUE(reqs[0].shed);
    const ResilienceStats& rs = r.metrics.resilience;
    EXPECT_DOUBLE_EQ(rs.timeouts, 2.0);
    EXPECT_DOUBLE_EQ(rs.retries, 1.0);
}

TEST(RetryPolicy, ZeroBudgetBlocksRetryStorms)
{
    // Same timed-out schedule as the rescue test, but the fleet-wide
    // retry budget is zero: the first timeout sheds instead of
    // re-dispatching.
    SimConfig cfg = homogeneousCluster(1);
    cfg.retry.enabled = true;
    cfg.retry.maxRetries = 2;
    cfg.retry.timeoutFactor = 0.5;
    cfg.retry.budget = 0.0;
    std::vector<Request> reqs = requestsAt({0.0, 0.0}, 2.5);
    SingleNodeDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());

    EXPECT_EQ(r.metrics.completed, 1u);
    EXPECT_EQ(r.metrics.shed, 1u);
    const ResilienceStats& rs = r.metrics.resilience;
    EXPECT_DOUBLE_EQ(rs.timeouts, 1.0);
    EXPECT_DOUBLE_EQ(rs.retries, 0.0);
    EXPECT_DOUBLE_EQ(rs.retryAmplification, 1.0);
}

// --- hedged dispatch --------------------------------------------------------

TEST(HedgePolicy, CloneOnFasterNodeWinsAndCancelsPrimary)
{
    // Node 0 is reference speed, node 1 twice as fast. r0 seeds the
    // latency quantile (2.0s); r1 then lands on node 0 (tie to the
    // lowest id) and is hedged 0.25 * 2.0 = 0.5s later onto node 1,
    // where the clone finishes at 2.6 + 1.0 = 3.6 while the primary
    // would have needed until 4.1: the clone wins, the primary is
    // cancelled, and the request reports the clone's finish time.
    std::vector<NodeProfile> profiles = {
        referenceNodeProfile("slow"), referenceNodeProfile("fast")};
    profiles[1].speedFactor = 2.0;
    SimConfig cfg;
    cfg.nodes = profiles;
    cfg.hedge.enabled = true;
    cfg.hedge.factor = 0.25;
    cfg.hedge.minSamples = 1;
    std::vector<Request> reqs = requestsAt({0.0, 2.1});
    LeastOutstandingDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());

    EXPECT_EQ(r.metrics.completed, 2u);
    EXPECT_EQ(r.metrics.shed, 0u);
    EXPECT_DOUBLE_EQ(reqs[1].finishTime, 3.6);
    const ResilienceStats& rs = r.metrics.resilience;
    ASSERT_TRUE(rs.active);
    EXPECT_DOUBLE_EQ(rs.hedges, 1.0);
    EXPECT_DOUBLE_EQ(rs.hedgeWins, 1.0);
    EXPECT_DOUBLE_EQ(rs.hedgeWinRate, 1.0);
    // The winning clone completed on the fast node.
    EXPECT_EQ(r.perNodeCompleted[1], 1u);
}

TEST(HedgePolicy, SingleNodeFleetNeverHedges)
{
    // No second node to duplicate onto: the hedge event fires and
    // finds no target, so the run degenerates to the plain schedule.
    SimConfig cfg = homogeneousCluster(1);
    cfg.hedge.enabled = true;
    cfg.hedge.factor = 0.25;
    cfg.hedge.minSamples = 1;
    std::vector<Request> reqs = requestsAt({0.0, 2.1});
    SingleNodeDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());

    EXPECT_EQ(r.metrics.completed, 2u);
    EXPECT_DOUBLE_EQ(reqs[1].finishTime, 4.1);
    EXPECT_DOUBLE_EQ(r.metrics.resilience.hedges, 0.0);
    EXPECT_DOUBLE_EQ(r.metrics.resilience.hedgeWinRate, 0.0);
}

// --- tiered brown-out degradation -------------------------------------------

TEST(Brownout, LowestTierShedsFirstUnderEscalatedMargins)
{
    // Two equal tiers; the brown-out step of 100 makes tier 1's
    // effective margin 101x — hopeless against a 20s window on a 2s
    // model — while tier 0 keeps margin 1 and is always admitted on
    // the lightly-loaded single node.
    SimConfig cfg = homogeneousCluster(1);
    cfg.lut = &world().lut;
    cfg.admission.enabled = true;
    cfg.admission.margin = 1.0;
    cfg.brownout.enabled = true;
    cfg.brownout.step = 100.0;
    cfg.tierWeights = {0.5, 0.5};
    std::vector<Request> reqs =
        requestsAt({0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7});
    SingleNodeDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());

    // The engine's tier split must match the pure hash.
    double tier1 = 0.0;
    for (const Request& req : reqs)
        tier1 += tierOfRequest(req.id, cfg.tierWeights,
                               cfg.chaosSeed) == 1;
    ASSERT_GT(tier1, 0.0) << "hash put every request in tier 0; "
                             "grow the request set";
    ASSERT_LT(tier1, 8.0);

    const ResilienceStats& rs = r.metrics.resilience;
    ASSERT_EQ(rs.tiers.size(), 2u);
    EXPECT_DOUBLE_EQ(rs.tiers[1].shed, tier1);
    EXPECT_DOUBLE_EQ(rs.tiers[0].shed, 0.0);
    EXPECT_DOUBLE_EQ(rs.tiers[0].completed, 8.0 - tier1);
    EXPECT_DOUBLE_EQ(rs.brownoutSheds, tier1);
    EXPECT_EQ(r.metrics.shed, static_cast<size_t>(tier1));
    // Goodput only counts in-deadline completions of the tier.
    EXPECT_DOUBLE_EQ(
        rs.tiers[0].goodput,
        (rs.tiers[0].completed - rs.tiers[0].violations) /
            r.metrics.makespan);
}

TEST(Brownout, RequiresAdmissionControl)
{
    SimConfig cfg = homogeneousCluster(1);
    cfg.brownout.enabled = true;
    std::vector<Request> reqs = requestsAt({0.0});
    SingleNodeDispatcher disp;
    EXPECT_DEATH(runSimulation(cfg, reqs, disp, fcfsNodes()),
                 "requires admission");
}

// --- availability accounting ------------------------------------------------

TEST(Availability, ScriptedDownSpellGivesExactMttr)
{
    // Node 1 is down from 0.5 to 1.5 over a run ending at the last
    // completion (t=4.0): availability = 1 - 1.0 / (2 * 4.0). A
    // single implicit tier activates resilience accounting without
    // perturbing the schedule.
    SimConfig cfg = homogeneousCluster(2);
    cfg.nodeEvents = {{0.5, 1, NodeEventKind::Fail},
                      {1.5, 1, NodeEventKind::Recover}};
    cfg.tierWeights = {1.0};
    std::vector<Request> reqs = requestsAt({0.0, 0.0});
    LeastOutstandingDispatcher disp;
    SimResult r = runSimulation(cfg, reqs, disp, fcfsNodes());

    EXPECT_EQ(r.metrics.completed, 2u);
    const ResilienceStats& rs = r.metrics.resilience;
    ASSERT_TRUE(rs.active);
    EXPECT_DOUBLE_EQ(rs.failures, 1.0);
    EXPECT_DOUBLE_EQ(rs.mttr, 1.0);
    EXPECT_DOUBLE_EQ(rs.availability, 1.0 - 1.0 / 8.0);
    EXPECT_DOUBLE_EQ(rs.timeouts, 0.0);
    EXPECT_DOUBLE_EQ(rs.retries, 0.0);
    ASSERT_EQ(rs.tiers.size(), 1u);
    EXPECT_DOUBLE_EQ(rs.tiers[0].completed, 2.0);
}

// --- telemetry ring buffer --------------------------------------------------

TEST(TelemetryRing, CapKeepsMostRecentEventsInOrder)
{
    TelemetryConfig tcfg;
    tcfg.maxEvents = 4;
    Telemetry telemetry(tcfg);
    telemetry.beginRun(1);
    Request req = world().request(0, "m", 0.0);
    for (int i = 0; i < 10; ++i) {
        req.arrival = static_cast<double>(i);
        telemetry.arrival(req, req.arrival);
    }
    telemetry.endRun(10.0);

    EXPECT_EQ(telemetry.events().size(), 4u);
    EXPECT_EQ(telemetry.eventsDropped(), 6u);
    std::vector<TelemetryEvent> ordered = telemetry.orderedEvents();
    ASSERT_EQ(ordered.size(), 4u);
    // The ring keeps the most recent entries, chronologically.
    for (size_t i = 0; i < ordered.size(); ++i)
        EXPECT_DOUBLE_EQ(ordered[i].time,
                         static_cast<double>(6 + i));
    // Counters are unaffected by the cap.
    EXPECT_EQ(telemetry.arrivals(), 10u);
}

TEST(TelemetryRing, UnboundedLogIsUntouched)
{
    Telemetry telemetry;
    telemetry.beginRun(1);
    Request req = world().request(0, "m", 0.0);
    for (int i = 0; i < 10; ++i)
        telemetry.arrival(req, static_cast<double>(i));
    telemetry.endRun(10.0);
    EXPECT_EQ(telemetry.events().size(), 10u);
    EXPECT_EQ(telemetry.eventsDropped(), 0u);
    EXPECT_EQ(telemetry.orderedEvents().size(), 10u);
}

// --- determinism ------------------------------------------------------------

namespace {

/** A chaos cell over the profiled AttNN workload. */
SweepCell
chaosCell(const std::string& chaos)
{
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 120.0;
    cell.workload.arrival.kind = ArrivalKind::Mmpp;
    cell.workload.numRequests = 150;
    cell.clusterMode = true;
    cell.cluster.nodes =
        fleetFromSpec("sanger:2@rack0,sanger:2@rack1");
    cell.cluster.dispatcher = "least-outstanding";
    cell.cluster.chaos = chaos;
    cell.cluster.retry = "retry:max=2,backoff=2,timeout=1,budget=0.5";
    cell.cluster.hedge = "hedge:quantile=0.9,min_samples=16";
    return cell;
}

} // namespace

TEST(ChaosDeterminism, SameSeedChaosRunsAreBitIdentical)
{
    SweepCell cell = chaosCell("mtbf:up=exp@2,down=exp@0.5");
    SweepCellResult a = runSweepCell(ctx(), cell);
    SweepCellResult b = runSweepCell(ctx(), cell);
    EXPECT_EQ(metricsDifferences(a.metrics, b.metrics),
              std::vector<std::string>{});
    EXPECT_EQ(a.decisions, b.decisions);
    // The chaos actually bit: this cell must observe faults.
    EXPECT_TRUE(a.metrics.resilience.active);
    EXPECT_GT(a.metrics.resilience.failures, 0.0);
    EXPECT_LT(a.metrics.resilience.availability, 1.0);
}

TEST(ChaosDeterminism, ScriptedEventsAloneKeepResilienceInert)
{
    // nodeEvents predate the chaos engine; on their own they must
    // not flip the resilience reporting on (chaos-off reports stay
    // byte-identical to pre-chaos builds).
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 100.0;
    cell.workload.numRequests = 80;
    cell.clusterMode = true;
    cell.cluster.nodes = fleetFromSpec("sanger:2");
    cell.cluster.nodeEvents =
        nodeEventsFromSpec("fail@0.5:0,recover@1.5:0");
    SweepCellResult r = runSweepCell(ctx(), cell);
    EXPECT_FALSE(r.metrics.resilience.active);
    EXPECT_EQ(r.metrics.resilience.tiers.size(), 0u);
}

TEST(ChaosDeterminism, ChaosGridBitIdenticalAcrossJobs)
{
    // The chaos.scn axis shape: an off slice, independent node
    // faults, and correlated domain faults, serial vs 4 jobs.
    std::vector<SweepCell> cells;
    cells.push_back(chaosCell(""));
    cells.push_back(chaosCell("mtbf:up=exp@2,down=exp@0.5"));
    cells.push_back(
        chaosCell("mtbf:up=exp@1,down=exp@0.3,scope=domain"));
    SweepRunner serial(ctx(), 1);
    SweepRunner parallel(ctx(), 4);
    std::vector<SweepCellResult> a = serial.run(cells);
    std::vector<SweepCellResult> b = parallel.run(cells);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(metricsDifferences(a[i].metrics, b[i].metrics),
                  std::vector<std::string>{}) << i;
    }
    // The off slice reports no chaos; the chaos slices do.
    EXPECT_FALSE(a[0].metrics.resilience.failures > 0.0);
    EXPECT_GT(a[1].metrics.resilience.failures, 0.0);
    EXPECT_GT(a[2].metrics.resilience.failures, 0.0);
}
