/**
 * @file
 * Tests for the streaming megascale core: StreamingMetrics (exact
 * replay and P² sketch), streaming-vs-materialized bit-identity on
 * single-node and cluster runs under both metrics kinds (including
 * failures/migration, which exercise arena recycling), the
 * RequestArena free list, and the EventQueue against an independent
 * std::multiset reference, including its deferred-pop vacancy edges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exp/sweep.hh"
#include "sched/engine.hh"
#include "sched/metrics.hh"
#include "serve/dispatcher.hh"
#include "sim/core.hh"
#include "sim/event_queue.hh"
#include "sim/request_arena.hh"
#include "test_helpers.hh"
#include "util/rng.hh"
#include "workload/source.hh"

using namespace dysta;
using dysta::test::World;

namespace {

/** One shared small context for all streaming tests. */
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

// --- StreamingMetrics ------------------------------------------------------

TEST(StreamingMetrics, ExactModeMatchesComputeMetricsBitForBit)
{
    // A cluster run with admission control produces a mix of
    // completed and shed requests; retiring them into an exact-mode
    // accumulator in *scrambled* order must still reproduce the
    // materialized computeMetricsCompleted() result bit for bit
    // (records are replayed in id order).
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 80.0;
    wl.numRequests = 200;
    std::vector<Request> reqs = generateWorkload(wl, ctx().registry);

    SimConfig cluster = homogeneousCluster(2);
    cluster.admission.enabled = true;
    cluster.admission.margin = 1.2;
    cluster.lut = &ctx().lut;
    LeastBacklogDispatcher dispatcher(ctx().lut);
    SimResult result = runSimulation(
        cluster, reqs, dispatcher, [&](const NodeProfile&, int) {
            return makeSchedulerByName("Dysta", ctx());
        });
    EXPECT_GT(result.metrics.completed, 0u);
    EXPECT_GT(result.metrics.shed, 0u);

    std::vector<const Request*> order;
    for (const Request& req : reqs)
        order.push_back(&req);
    Rng rng(7);
    rng.shuffle(order);

    StreamingMetrics exact(MetricsKind::Exact);
    for (const Request* req : order) {
        if (req->shed)
            exact.recordShed(*req);
        else
            exact.recordCompleted(*req);
    }
    EXPECT_EQ(exact.retired(), reqs.size());
    EXPECT_EQ(metricsDifferences(exact.finalize(), result.metrics),
              std::vector<std::string>{}) << "exact streaming accumulator";
}

TEST(StreamingMetrics, SketchModeTracksExactWithinTolerance)
{
    // Heavy-tailed synthetic latencies: the P² estimators must land
    // near the exact percentiles, and the Welford means must agree
    // with the exact summation to floating-point noise.
    World w;
    w.addModel("m", {0.1}, {0.5});
    Rng rng(1234);
    std::vector<Request> reqs;
    StreamingMetrics sketch(MetricsKind::Sketch);
    for (int i = 0; i < 4000; ++i) {
        Request req = w.request(i, "m", 0.01 * i, /*slo_mult=*/6.0);
        req.nextLayer = req.layerCount();
        double latency = 0.1 * std::exp(rng.normal() * 0.8);
        req.finishTime = req.arrival + latency;
        reqs.push_back(req);
        sketch.recordCompleted(reqs.back());
    }
    Metrics exact = computeMetrics(reqs);
    Metrics approx = sketch.finalize();

    EXPECT_EQ(approx.completed, exact.completed);
    EXPECT_DOUBLE_EQ(approx.makespan, exact.makespan);
    EXPECT_DOUBLE_EQ(approx.violationRate, exact.violationRate);
    EXPECT_DOUBLE_EQ(approx.throughput, exact.throughput);
    EXPECT_NEAR(approx.antt, exact.antt, 1e-9 * exact.antt);
    EXPECT_NEAR(approx.stp, exact.stp, 1e-9 * exact.stp);
    EXPECT_NEAR(approx.p50Latency, exact.p50Latency,
                0.05 * exact.p50Latency);
    EXPECT_NEAR(approx.p95Latency, exact.p95Latency,
                0.10 * exact.p95Latency);
    EXPECT_NEAR(approx.p99Latency, exact.p99Latency,
                0.15 * exact.p99Latency);
    EXPECT_NEAR(approx.p50Turnaround, exact.p50Turnaround,
                0.05 * exact.p50Turnaround);
    EXPECT_NEAR(approx.p95Turnaround, exact.p95Turnaround,
                0.10 * exact.p95Turnaround);
    EXPECT_NEAR(approx.p99Turnaround, exact.p99Turnaround,
                0.15 * exact.p99Turnaround);
}

// --- streaming vs materialized bit-identity --------------------------------

TEST(Streaming, SingleNodeBitIdenticalToMaterialized)
{
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 40.0;
    wl.numRequests = 150;

    std::vector<Request> reqs = generateWorkload(wl, ctx().registry);
    auto policy_a = makeSchedulerByName("Dysta", ctx());
    SimResult materialized =
        runSingleNode(singleNodeSimConfig(), reqs, *policy_a);

    WorkloadArrivalSource source(wl, ctx().registry);
    EXPECT_EQ(source.total(), reqs.size());
    auto policy_b = makeSchedulerByName("Dysta", ctx());
    SimResult streaming =
        runSingleNode(singleNodeSimConfig(), source, *policy_b);

    EXPECT_EQ(metricsDifferences(streaming.metrics, materialized.metrics),
              std::vector<std::string>{}) << "single-node streaming";
    EXPECT_EQ(streaming.decisions, materialized.decisions);
    EXPECT_EQ(streaming.preemptions, materialized.preemptions);
    EXPECT_EQ(streaming.eventsProcessed,
              materialized.eventsProcessed);
    // The flat-memory claim: only the in-flight set was ever alive.
    EXPECT_LT(source.arena().allocated(), reqs.size());
    EXPECT_EQ(source.arena().live(), 0u);
}

TEST(Streaming, ClusterBitIdenticalAcrossModes)
{
    // Materialized and streaming runs of a cluster with admission
    // shedding and a mid-run failure plus recovery (restarted requests
    // migrate through the dispatcher) must produce one single
    // schedule.
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 60.0;
    wl.numRequests = 250;

    SweepCell base;
    base.workload = wl;
    base.clusterMode = true;
    base.cluster.numNodes = 3;
    base.cluster.dispatcher = "least-backlog";
    base.cluster.nodeScheduler = "Dysta";
    base.cluster.admission.enabled = true;
    base.cluster.admission.margin = 1.2;
    base.cluster.nodeEvents = {{1.0, 1, NodeEventKind::Fail},
                               {3.0, 1, NodeEventKind::Recover}};

    SimResult reference = runSweepCell(ctx(), base);
    EXPECT_GT(reference.metrics.completed, 0u);

    for (bool streaming : {false, true}) {
        SweepCell cell = base;
        cell.streaming = streaming;
        SimResult run = runSweepCell(ctx(), cell);
        std::string what = streaming ? "streaming" : "materialized";
        EXPECT_EQ(metricsDifferences(run.metrics, reference.metrics),
                  std::vector<std::string>{}) << what;
        EXPECT_EQ(run.decisions, reference.decisions) << what;
        EXPECT_EQ(run.preemptions, reference.preemptions) << what;
        EXPECT_EQ(run.eventsProcessed, reference.eventsProcessed)
            << what;
        EXPECT_EQ(run.perNodeCompleted, reference.perNodeCompleted)
            << what;
    }
}

TEST(Streaming, SketchMetricsAgreeAcrossModes)
{
    // metricsKind means the same with and without streaming: both
    // runs retire into one Sketch accumulator in completion order,
    // so even the approximate P² percentiles agree bit for bit.
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 60.0;
    cell.workload.numRequests = 250;
    cell.clusterMode = true;
    cell.cluster.numNodes = 2;
    cell.cluster.dispatcher = "least-outstanding";
    cell.cluster.nodeScheduler = "Dysta";
    cell.cluster.admission.enabled = true;
    cell.cluster.admission.margin = 1.2;
    cell.metricsKind = MetricsKind::Sketch;

    SimResult materialized = runSweepCell(ctx(), cell);
    cell.streaming = true;
    SimResult streaming = runSweepCell(ctx(), cell);
    EXPECT_GT(materialized.metrics.completed, 0u);
    EXPECT_EQ(metricsDifferences(streaming.metrics, materialized.metrics),
              std::vector<std::string>{})
        << "sketch metrics, streaming vs materialized";
    EXPECT_EQ(streaming.eventsProcessed,
              materialized.eventsProcessed);
}

TEST(Streaming, ArenaRecyclesUnderFailures)
{
    // Drive a streaming cluster run through fail/recover transitions
    // and check the pool actually recycles: far fewer slots than
    // requests, slots reused, and everything returned at the end.
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 30.0;
    wl.numRequests = 300;

    SimConfig cluster = homogeneousCluster(2);
    cluster.admission.enabled = true;
    cluster.admission.margin = 1.2;
    cluster.lut = &ctx().lut;
    cluster.nodeEvents = {{1.0, 0, NodeEventKind::Fail},
                          {2.5, 0, NodeEventKind::Recover},
                          {4.0, 1, NodeEventKind::Drain},
                          {5.0, 1, NodeEventKind::Recover}};

    WorkloadArrivalSource source(wl, ctx().registry);
    LeastBacklogDispatcher dispatcher(ctx().lut);
    SimResult streamed = runSimulation(
        cluster, source, dispatcher, [&](const NodeProfile&, int) {
            return makeSchedulerByName("Dysta", ctx());
        });

    const RequestArena& arena = source.arena();
    EXPECT_EQ(streamed.metrics.completed + streamed.metrics.shed,
              static_cast<size_t>(wl.numRequests));
    EXPECT_LT(arena.allocated(), static_cast<size_t>(wl.numRequests));
    EXPECT_GT(arena.reuses(), 0u);
    EXPECT_EQ(arena.live(), 0u);
    EXPECT_EQ(arena.peakLive(), arena.allocated());

    // And the schedule still matches the materialized twin.
    std::vector<Request> reqs = generateWorkload(wl, ctx().registry);
    LeastBacklogDispatcher dispatcher2(ctx().lut);
    SimResult materialized = runSimulation(
        cluster, reqs, dispatcher2, [&](const NodeProfile&, int) {
            return makeSchedulerByName("Dysta", ctx());
        });
    EXPECT_EQ(metricsDifferences(streamed.metrics, materialized.metrics),
              std::vector<std::string>{}) << "arena streaming run";
}

// --- RequestArena ----------------------------------------------------------

TEST(RequestArena, RecyclesSlotsWithStableAddresses)
{
    RequestArena arena;
    Request* a = arena.acquire();
    Request* b = arena.acquire();
    Request* c = arena.acquire();
    EXPECT_EQ(arena.allocated(), 3u);
    EXPECT_EQ(arena.live(), 3u);
    EXPECT_EQ(arena.reuses(), 0u);

    arena.release(b);
    EXPECT_EQ(arena.live(), 2u);
    Request* d = arena.acquire();
    EXPECT_EQ(d, b); // free list serves the released slot
    EXPECT_EQ(arena.allocated(), 3u);
    EXPECT_EQ(arena.reuses(), 1u);
    EXPECT_EQ(arena.peakLive(), 3u);

    arena.release(a);
    arena.release(c);
    arena.release(d);
    EXPECT_EQ(arena.live(), 0u);
    EXPECT_EQ(arena.peakLive(), 3u);
}

// --- EventQueue vs a std::multiset reference ------------------------------

namespace {

SimEvent
makeEvent(double time, SimEventKind kind = SimEventKind::LayerComplete,
          int node = 0)
{
    SimEvent ev;
    ev.time = time;
    ev.kind = kind;
    ev.node = node;
    return ev;
}

/**
 * Drive the calendar through a causal random interleaving of push,
 * pop, top and clear, and require every pop and top to match the minimum of a
 * std::multiset holding every pending event under operator<. Times
 * sit on a coarse grid and kinds and nodes on small ranges, so exact
 * (time, kind, node) ties are common and only seq separates them.
 *
 * Before each push, popsNext must say whether the event, with the seq
 * the push will assign, is below every pending one; half the events
 * it calls next are then handled in place (skipPush) instead, as the
 * run loop does. `answers` counts its answers by whether the root was
 * vacant (after a pop) and by the answer.
 */
void
checkAgainstReference(uint64_t seed, size_t (&answers)[2][2])
{
    EventQueue cal;
    std::multiset<SimEvent> ref;
    uint64_t seq = 0;
    Rng rng(seed);
    double now = 0.0;
    size_t pops = 0;
    bool vacant = false;
    for (int op = 0; op < 8000; ++op) {
        double roll = rng.uniform();
        if (ref.empty() || roll < 0.5) {
            double when = rng.uniform();
            double t = when < 0.3   ? now
                       : when < 0.9 ? now + 0.25 * rng.uniformInt(0, 6)
                                    : now + rng.uniform(50.0, 400.0);
            SimEvent ev = makeEvent(
                t, static_cast<SimEventKind>(rng.uniformInt(0, 6)),
                static_cast<int>(rng.uniformInt(-1, 2)));
            ev.seq = seq;
            bool next = cal.popsNext(ev);
            ASSERT_EQ(next, ref.empty() || ev < *ref.begin())
                << "seed " << seed << " op " << op;
            ++answers[vacant][next];
            ++seq;
            if (next && rng.uniform() < 0.5) {
                cal.skipPush();
                now = t;
                ++pops;
                continue;
            }
            cal.push(ev);
            ref.insert(ev);
            vacant = false;
        } else if (roll < 0.9) {
            SimEvent got = cal.pop();
            SimEvent want = *ref.begin();
            ref.erase(ref.begin());
            ASSERT_EQ(got.time, want.time) << "seed " << seed
                                           << " pop " << pops;
            ASSERT_EQ(got.kind, want.kind) << "seed " << seed
                                           << " pop " << pops;
            ASSERT_EQ(got.node, want.node) << "seed " << seed
                                           << " pop " << pops;
            ASSERT_EQ(got.seq, want.seq) << "seed " << seed
                                         << " pop " << pops;
            now = got.time;
            ++pops;
            vacant = true;
        } else if (roll < 0.995) {
            const SimEvent& top = cal.top();
            ASSERT_EQ(top.seq, ref.begin()->seq)
                << "seed " << seed << " top after pop " << pops;
            vacant = false;
        } else {
            cal.clear();
            ref.clear();
            seq = 0;
            vacant = false;
        }
        ASSERT_EQ(cal.size(), ref.size()) << "seed " << seed;
        ASSERT_EQ(cal.empty(), ref.empty()) << "seed " << seed;
    }
    while (!ref.empty()) {
        ASSERT_EQ(cal.pop().seq, ref.begin()->seq) << "seed " << seed;
        ref.erase(ref.begin());
    }
    EXPECT_TRUE(cal.empty());
}

} // namespace

TEST(Calendars, MatchMultisetReferenceOnRandomInterleavings)
{
    size_t answers[2][2] = {};
    for (uint64_t seed = 1; seed <= 6; ++seed)
        checkAgainstReference(seed * 7919, answers);
    // popsNext answered both ways with the root settled and vacant.
    for (int vacant = 0; vacant < 2; ++vacant) {
        for (int next = 0; next < 2; ++next)
            EXPECT_GT(answers[vacant][next], 100u)
                << "vacant " << vacant << " next " << next;
    }
}

TEST(Calendars, DeferredPopVacancyEdges)
{
    EventQueue cal;
    // size() and empty() never count the vacant slot.
    cal.push(makeEvent(1.0));
    EXPECT_EQ(cal.pop().time, 1.0);
    EXPECT_TRUE(cal.empty());
    EXPECT_EQ(cal.size(), 0u);

    // pop -> pop settles the first vacancy before the second pop.
    cal.push(makeEvent(3.0));
    cal.push(makeEvent(2.0));
    cal.push(makeEvent(4.0));
    EXPECT_EQ(cal.pop().time, 2.0);
    EXPECT_EQ(cal.size(), 2u);
    EXPECT_FALSE(cal.empty());
    EXPECT_EQ(cal.pop().time, 3.0);
    EXPECT_EQ(cal.size(), 1u);

    // pop -> push refills the vacancy; an earlier successor still
    // pops first.
    cal.push(makeEvent(3.5));
    EXPECT_EQ(cal.pop().time, 3.5);
    EXPECT_EQ(cal.pop().time, 4.0);
    EXPECT_TRUE(cal.empty());

    // pop -> clear -> push: clear drops the vacancy and the seq
    // counter.
    cal.push(makeEvent(5.0));
    cal.push(makeEvent(6.0));
    EXPECT_EQ(cal.pop().time, 5.0);
    cal.clear();
    EXPECT_TRUE(cal.empty());
    cal.push(makeEvent(7.0));
    EXPECT_EQ(cal.size(), 1u);
    SimEvent ev = cal.pop();
    EXPECT_EQ(ev.time, 7.0);
    EXPECT_EQ(ev.seq, 0u);
    EXPECT_TRUE(cal.empty());

    // pop -> top settles the vacancy and returns the next minimum.
    cal.push(makeEvent(2.0));
    cal.push(makeEvent(1.0));
    cal.push(makeEvent(3.0));
    EXPECT_EQ(cal.pop().time, 1.0);
    EXPECT_EQ(cal.top().time, 2.0);
    EXPECT_EQ(cal.size(), 2u);
    EXPECT_EQ(cal.pop().time, 2.0);
    EXPECT_EQ(cal.top().time, 3.0);

    // popsNext against a vacant root with 0, 1 and 2 children. A
    // (time, kind, node) tie goes to the pending event, pushed
    // earlier; an event push() would reject is never next.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    cal.clear();
    cal.push(makeEvent(1.0));
    cal.pop();
    EXPECT_TRUE(cal.popsNext(makeEvent(1.0)));
    EXPECT_TRUE(cal.popsNext(makeEvent(1e9)));
    EXPECT_FALSE(cal.popsNext(makeEvent(nan)));
    EXPECT_FALSE(cal.popsNext(makeEvent(-1.0)));
    cal.push(makeEvent(2.0));
    cal.push(makeEvent(3.0));
    cal.pop(); // vacant root, one child: 3.0
    EXPECT_TRUE(cal.popsNext(makeEvent(2.5)));
    EXPECT_FALSE(cal.popsNext(makeEvent(3.0)));
    EXPECT_TRUE(cal.popsNext(makeEvent(3.0, SimEventKind::Arrival)));
    EXPECT_FALSE(cal.popsNext(makeEvent(3.0, SimEventKind::Decision)));
    EXPECT_TRUE(cal.popsNext(makeEvent(3.0, SimEventKind::LayerComplete,
                                       -1)));
    EXPECT_FALSE(cal.popsNext(makeEvent(3.0, SimEventKind::LayerComplete,
                                        1)));
    EXPECT_EQ(cal.size(), 1u);
    // Vacant root, two children in either order: both are compared.
    for (double second : {4.0, 6.0}) {
        cal.clear();
        cal.push(makeEvent(1.0));
        cal.push(makeEvent(10.0 - second));
        cal.push(makeEvent(second));
        cal.pop();
        EXPECT_TRUE(cal.popsNext(makeEvent(3.5)));
        EXPECT_FALSE(cal.popsNext(makeEvent(4.0)));
        EXPECT_FALSE(cal.popsNext(makeEvent(5.0)));
        EXPECT_EQ(cal.size(), 2u);
    }
    // A settled root is compared directly.
    EXPECT_EQ(cal.top().time, 4.0);
    EXPECT_TRUE(cal.popsNext(makeEvent(3.5)));
    EXPECT_FALSE(cal.popsNext(makeEvent(4.0)));

    // skipPush uses up exactly one seq number and leaves the pending
    // events as they were.
    cal.clear();
    cal.push(makeEvent(1.0));
    cal.pop();
    cal.skipPush();
    cal.push(makeEvent(2.0));
    cal.skipPush();
    cal.skipPush();
    cal.push(makeEvent(2.0));
    EXPECT_EQ(cal.size(), 2u);
    SimEvent first = cal.pop();
    EXPECT_EQ(first.seq, 2u);
    EXPECT_EQ(cal.pop().seq, 5u);
    EXPECT_TRUE(cal.empty());
}

TEST(Calendars, RejectNaNOrNegativeEventTimes)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(EventQueue().push(makeEvent(nan)),
                 "EventQueue: event time -?nan of kind LayerComplete");
    EXPECT_DEATH(EventQueue().push(makeEvent(-1.0, SimEventKind::Hedge)),
                 "EventQueue: event time -1.0+ of kind Hedge");
}

// --- parse helpers ---------------------------------------------------------

TEST(StreamingNames, KindParsersRoundTrip)
{
    EXPECT_EQ(toString(MetricsKind::Exact), "exact");
    EXPECT_EQ(toString(MetricsKind::Sketch), "sketch");
    EXPECT_EQ(metricsKindFromName("exact"), MetricsKind::Exact);
    EXPECT_EQ(metricsKindFromName("sketch"), MetricsKind::Sketch);
    EXPECT_EXIT(metricsKindFromName("hdr"),
                ::testing::ExitedWithCode(1), "exact, sketch");
}
