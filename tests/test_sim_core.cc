/**
 * @file
 * Tests for the unified simulation core: event-calendar ordering,
 * the regression that SchedulerEngine and a direct 1-node
 * runSimulation report identical schedules AND identical
 * preemption/decision counts for every policy (the counting rules
 * are defined once, in SimNode), and the Metrics percentile fields.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/dysta.hh"
#include "sched/engine.hh"
#include "sched/fcfs.hh"
#include "sched/oracle.hh"
#include "sched/prema.hh"
#include "sched/sjf.hh"
#include "serve/dispatcher.hh"
#include "sim/core.hh"
#include "sim/event_queue.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

using namespace dysta;
using dysta::test::World;

// --- EventQueue ------------------------------------------------------------

TEST(EventQueue, OrdersByTimeKindNodeSeq)
{
    EventQueue q;
    auto push = [&](double t, SimEventKind k, int node) {
        SimEvent ev;
        ev.time = t;
        ev.kind = k;
        ev.node = node;
        q.push(ev);
    };

    push(2.0, SimEventKind::Decision, -1);
    push(1.0, SimEventKind::LayerComplete, 3);
    push(1.0, SimEventKind::LayerComplete, 1);
    push(1.0, SimEventKind::Arrival, -1);
    push(1.0, SimEventKind::Decision, -1);
    push(0.5, SimEventKind::LayerComplete, 0);

    // time first
    EXPECT_EQ(q.pop().time, 0.5);
    // same time: arrivals, then completions by node id, then decision
    EXPECT_EQ(q.pop().kind, SimEventKind::Arrival);
    SimEvent c1 = q.pop();
    EXPECT_EQ(c1.kind, SimEventKind::LayerComplete);
    EXPECT_EQ(c1.node, 1);
    EXPECT_EQ(q.pop().node, 3);
    EXPECT_EQ(q.pop().kind, SimEventKind::Decision);
    EXPECT_EQ(q.pop().time, 2.0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualEventsPopInPushOrder)
{
    EventQueue q;
    std::vector<Request> reqs(3);
    for (int i = 0; i < 3; ++i) {
        reqs[i].id = i;
        SimEvent ev;
        ev.time = 1.0;
        ev.kind = SimEventKind::Arrival;
        ev.req = &reqs[i];
        q.push(ev);
    }
    EXPECT_EQ(q.pop().req->id, 0);
    EXPECT_EQ(q.pop().req->id, 1);
    EXPECT_EQ(q.pop().req->id, 2);
}

// --- unified counting semantics --------------------------------------------

namespace {

World
countingWorld(Rng& rng)
{
    World w;
    int num_models = static_cast<int>(rng.uniformInt(2, 4));
    for (int m = 0; m < num_models; ++m) {
        std::vector<double> lat, sp;
        size_t layers = static_cast<size_t>(rng.uniformInt(1, 6));
        for (size_t l = 0; l < layers; ++l) {
            lat.push_back(rng.uniform(0.02, 0.3));
            sp.push_back(rng.uniform(0.2, 0.8));
        }
        w.addModel("m" + std::to_string(m), lat, sp);
    }
    return w;
}

std::unique_ptr<Scheduler>
policyByName(const std::string& name, const World& w)
{
    if (name == "FCFS")
        return std::make_unique<FcfsScheduler>();
    if (name == "SJF")
        return std::make_unique<SjfScheduler>(w.lut);
    if (name == "PREMA")
        return std::make_unique<PremaScheduler>(w.lut);
    if (name == "Oracle")
        return std::make_unique<OracleScheduler>();
    return std::make_unique<DystaScheduler>(w.lut);
}

} // namespace

TEST(UnifiedCounting, EngineAndOneNodeClusterReportIdentically)
{
    // Regression for the historical divergence risk: with two loop
    // implementations, preemption/decision counting rules could (and
    // did threaten to) drift. SchedulerEngine (a forwarded caller-
    // owned policy) and a direct one-node runSimulation (a factory-
    // built policy behind a real dispatcher) must report identical
    // counts for every policy on random workloads.
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed * 31337);
        World w = countingWorld(rng);

        std::vector<Request> base;
        double t = 0.0;
        for (int i = 0; i < 30; ++i) {
            t += rng.exponential(10.0);
            std::string model = "m" + std::to_string(rng.uniformInt(
                0, static_cast<int64_t>(w.sets.size()) - 1));
            base.push_back(w.request(i, model, t, 5.0));
        }

        for (const char* name :
             {"FCFS", "SJF", "PREMA", "Oracle", "Dysta"}) {
            std::vector<Request> engine_reqs = base;
            std::vector<Request> cluster_reqs = base;

            auto policy = policyByName(name, w);
            SimResult er =
                SchedulerEngine().run(engine_reqs, *policy);

            RoundRobinDispatcher rr;
            SimResult cr = runSimulation(
                homogeneousCluster(1), cluster_reqs, rr,
                [&](const NodeProfile&, int) {
                    return policyByName(name, w);
                });

            EXPECT_EQ(er.decisions, cr.decisions)
                << name << " seed " << seed;
            EXPECT_EQ(er.preemptions, cr.preemptions)
                << name << " seed " << seed;
            EXPECT_DOUBLE_EQ(er.metrics.antt, cr.metrics.antt)
                << name << " seed " << seed;
            for (size_t i = 0; i < base.size(); ++i) {
                EXPECT_DOUBLE_EQ(engine_reqs[i].finishTime,
                                 cluster_reqs[i].finishTime)
                    << name << " seed " << seed << " req " << i;
            }
        }
    }
}

TEST(UnifiedCounting, BlockGranularityAndOverheadAgreeAcrossEngines)
{
    Rng rng(777);
    World w = countingWorld(rng);
    std::vector<Request> base;
    for (int i = 0; i < 12; ++i)
        base.push_back(w.request(i, "m0", 0.05 * i, 5.0));

    std::vector<Request> engine_reqs = base;
    std::vector<Request> cluster_reqs = base;

    EngineConfig ecfg;
    ecfg.layerBlockSize = 2;
    ecfg.decisionOverheadSec = 1e-3;
    SjfScheduler sjf(w.lut);
    SimResult er = SchedulerEngine(ecfg).run(engine_reqs, sjf);

    SimConfig ccfg;
    NodeProfile profile = referenceNodeProfile("n0");
    profile.layerBlockSize = 2;
    profile.decisionOverheadSec = 1e-3;
    ccfg.nodes = {profile};
    RoundRobinDispatcher rr;
    SimResult cr = runSimulation(
        ccfg, cluster_reqs, rr, [&](const NodeProfile&, int) {
            return std::make_unique<SjfScheduler>(w.lut);
        });

    EXPECT_EQ(er.decisions, cr.decisions);
    EXPECT_EQ(er.preemptions, cr.preemptions);
    for (size_t i = 0; i < base.size(); ++i) {
        EXPECT_DOUBLE_EQ(engine_reqs[i].finishTime,
                         cluster_reqs[i].finishTime);
    }
}

TEST(RunSimulation, ExplicitProfilesMatchHomogeneousCluster)
{
    World w;
    w.addModel("a", {0.1, 0.2}, {0.5, 0.5});
    std::vector<Request> a, b;
    for (int i = 0; i < 8; ++i) {
        a.push_back(w.request(i, "a", 0.1 * i));
        b.push_back(w.request(i, "a", 0.1 * i));
    }

    SimConfig sim;
    sim.nodes = {referenceNodeProfile("n0"),
                 referenceNodeProfile("n1")};
    RoundRobinDispatcher rr1;
    SimResult sr = runSimulation(sim, a, rr1, [](const NodeProfile&,
                                                 int) {
        return std::make_unique<FcfsScheduler>();
    });

    RoundRobinDispatcher rr2;
    SimResult cr = runSimulation(homogeneousCluster(2), b, rr2,
                                 [](const NodeProfile&, int) {
                                     return std::make_unique<
                                         FcfsScheduler>();
                                 });
    EXPECT_DOUBLE_EQ(sr.metrics.antt, cr.metrics.antt);
    EXPECT_EQ(sr.decisions, cr.decisions);
    EXPECT_EQ(sr.perNodeCompleted, cr.perNodeCompleted);
}

// --- Metrics percentiles ---------------------------------------------------

TEST(MetricsPercentiles, HandComputedLatencyQuantiles)
{
    World w;
    w.addModel("a", {0.1}, {0.5});
    std::vector<Request> reqs;
    for (int i = 0; i < 5; ++i) {
        Request req = w.request(i, "a", 0.0);
        req.nextLayer = 1;
        req.finishTime = 0.1 * (i + 1); // latencies 0.1 .. 0.5
        reqs.push_back(req);
    }

    Metrics m = computeMetrics(reqs);
    EXPECT_DOUBLE_EQ(m.p50Latency, 0.3);
    EXPECT_NEAR(m.p95Latency, 0.48, 1e-12);
    EXPECT_NEAR(m.p99Latency, 0.496, 1e-12);
    // Normalized turnaround = latency / 0.1.
    EXPECT_DOUBLE_EQ(m.p50Turnaround, 3.0);
    EXPECT_NEAR(m.p95Turnaround, 4.8, 1e-12);
    EXPECT_NEAR(m.p99Turnaround, 4.96, 1e-12);
}

TEST(MetricsPercentiles, OrderedAndWithinRangeOnSimulation)
{
    Rng rng(4242);
    World w = countingWorld(rng);
    std::vector<Request> reqs;
    double t = 0.0;
    for (int i = 0; i < 50; ++i) {
        t += rng.exponential(20.0);
        std::string model = "m" + std::to_string(rng.uniformInt(
            0, static_cast<int64_t>(w.sets.size()) - 1));
        reqs.push_back(w.request(i, model, t, 8.0));
    }
    DystaScheduler dysta(w.lut);
    SimResult r = SchedulerEngine().run(reqs, dysta);

    const Metrics& m = r.metrics;
    EXPECT_GT(m.p50Latency, 0.0);
    EXPECT_LE(m.p50Latency, m.p95Latency);
    EXPECT_LE(m.p95Latency, m.p99Latency);
    EXPECT_LE(m.p50Turnaround, m.p95Turnaround);
    EXPECT_LE(m.p95Turnaround, m.p99Turnaround);
    EXPECT_GE(m.p50Turnaround, 1.0); // turnaround can't beat isolated
    EXPECT_LE(m.p99Latency, m.makespan + 1e-12);
}
