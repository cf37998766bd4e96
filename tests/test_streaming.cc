/**
 * @file
 * Tests for the streaming megascale core: StreamingMetrics (exact
 * replay and P² sketch), streaming-vs-materialized bit-identity on
 * single-node and cluster runs (including failures/migration, which
 * exercise arena recycling), the RequestArena free list, and the
 * BucketCalendar's event-order equivalence with the binary heap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
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

/** Bit-exact equality over every simulated Metrics field. */
void
expectMetricsBitEqual(const Metrics& a, const Metrics& b,
                      const std::string& what)
{
    EXPECT_DOUBLE_EQ(a.antt, b.antt) << what;
    EXPECT_DOUBLE_EQ(a.violationRate, b.violationRate) << what;
    EXPECT_DOUBLE_EQ(a.sloMissRate, b.sloMissRate) << what;
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput) << what;
    EXPECT_DOUBLE_EQ(a.stp, b.stp) << what;
    EXPECT_DOUBLE_EQ(a.p50Turnaround, b.p50Turnaround) << what;
    EXPECT_DOUBLE_EQ(a.p95Turnaround, b.p95Turnaround) << what;
    EXPECT_DOUBLE_EQ(a.p99Turnaround, b.p99Turnaround) << what;
    EXPECT_DOUBLE_EQ(a.p50Latency, b.p50Latency) << what;
    EXPECT_DOUBLE_EQ(a.p95Latency, b.p95Latency) << what;
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency) << what;
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan) << what;
    EXPECT_EQ(a.completed, b.completed) << what;
    EXPECT_EQ(a.shed, b.shed) << what;
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
    expectMetricsBitEqual(exact.finalize(), result.metrics,
                          "exact streaming accumulator");
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
    SchedulerEngine engine;
    SimResult materialized = engine.run(reqs, *policy_a);

    WorkloadArrivalSource source(wl, ctx().registry);
    EXPECT_EQ(source.total(), reqs.size());
    auto policy_b = makeSchedulerByName("Dysta", ctx());
    SimResult streaming = engine.run(source, *policy_b);

    expectMetricsBitEqual(streaming.metrics, materialized.metrics,
                          "single-node streaming");
    EXPECT_EQ(streaming.decisions, materialized.decisions);
    EXPECT_EQ(streaming.preemptions, materialized.preemptions);
    EXPECT_EQ(streaming.eventsProcessed,
              materialized.eventsProcessed);
    // The flat-memory claim: only the in-flight set was ever alive.
    EXPECT_LT(source.arena().allocated(), reqs.size());
    EXPECT_EQ(source.arena().live(), 0u);
}

TEST(Streaming, ClusterBitIdenticalAcrossCalendarsAndModes)
{
    // The full matrix — {materialized, streaming} x {heap, bucket} —
    // on a cluster with admission shedding and a mid-run failure plus
    // recovery (restarted requests migrate through the dispatcher),
    // must produce one single schedule.
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
        for (CalendarKind calendar :
             {CalendarKind::Heap, CalendarKind::Bucket}) {
            SweepCell cell = base;
            cell.streaming = streaming;
            cell.calendar = calendar;
            SimResult run = runSweepCell(ctx(), cell);
            std::string what =
                std::string(streaming ? "streaming" : "materialized") +
                " + " + toString(calendar);
            expectMetricsBitEqual(run.metrics, reference.metrics,
                                  what);
            EXPECT_EQ(run.decisions, reference.decisions) << what;
            EXPECT_EQ(run.preemptions, reference.preemptions)
                << what;
            EXPECT_EQ(run.eventsProcessed,
                      reference.eventsProcessed)
                << what;
            EXPECT_EQ(run.perNodeCompleted,
                      reference.perNodeCompleted)
                << what;
        }
    }
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
    expectMetricsBitEqual(streamed.metrics, materialized.metrics,
                          "arena streaming run");
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

// --- BucketCalendar --------------------------------------------------------

TEST(BucketCalendar, OrdersByTimeKindNodeSeq)
{
    BucketCalendar q;
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

    EXPECT_EQ(q.pop().time, 0.5);
    EXPECT_EQ(q.pop().kind, SimEventKind::Arrival);
    SimEvent c1 = q.pop();
    EXPECT_EQ(c1.kind, SimEventKind::LayerComplete);
    EXPECT_EQ(c1.node, 1);
    EXPECT_EQ(q.pop().node, 3);
    EXPECT_EQ(q.pop().kind, SimEventKind::Decision);
    EXPECT_EQ(q.pop().time, 2.0);
    EXPECT_TRUE(q.empty());
}

TEST(BucketCalendar, MatchesHeapOnRandomOpSequences)
{
    // Property test of the calendar contract: any causal push/pop
    // interleaving (pushes never schedule before the current time,
    // as in a discrete-event run) pops identically from both
    // implementations — times, kinds, nodes and seq numbers.
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed * 9176);
        EventQueue heap;
        BucketCalendar bucket;
        double now = 0.0;
        size_t pops = 0;
        for (int op = 0; op < 6000; ++op) {
            bool do_push = heap.empty() || rng.uniform() < 0.55;
            if (do_push) {
                SimEvent ev;
                double roll = rng.uniform();
                if (roll < 0.15)
                    ev.time = now; // exact tie
                else if (roll < 0.9)
                    ev.time = now + rng.exponential(2.0);
                else
                    ev.time = now + rng.uniform(100.0, 2000.0);
                ev.kind = static_cast<SimEventKind>(
                    rng.uniformInt(0, 3));
                ev.node = static_cast<int>(rng.uniformInt(-1, 7));
                heap.push(ev);
                bucket.push(ev);
                ASSERT_EQ(heap.size(), bucket.size());
            } else {
                SimEvent a = heap.pop();
                SimEvent b = bucket.pop();
                ASSERT_DOUBLE_EQ(a.time, b.time)
                    << "seed " << seed << " pop " << pops;
                ASSERT_EQ(a.kind, b.kind)
                    << "seed " << seed << " pop " << pops;
                ASSERT_EQ(a.node, b.node)
                    << "seed " << seed << " pop " << pops;
                ASSERT_EQ(a.seq, b.seq)
                    << "seed " << seed << " pop " << pops;
                ASSERT_GE(a.time, now);
                now = a.time;
                ++pops;
            }
        }
        while (!heap.empty()) {
            SimEvent a = heap.pop();
            SimEvent b = bucket.pop();
            ASSERT_DOUBLE_EQ(a.time, b.time);
            ASSERT_EQ(a.seq, b.seq);
        }
        EXPECT_TRUE(bucket.empty());
    }
}

TEST(BucketCalendar, ResizesUnderLoadAndSurvivesClear)
{
    BucketCalendar q;
    size_t initial_buckets = q.bucketCount();
    Rng rng(31);
    double t = 0.0;
    for (int i = 0; i < 20000; ++i) {
        SimEvent ev;
        t += rng.exponential(50.0);
        ev.time = t;
        q.push(ev);
    }
    EXPECT_EQ(q.size(), 20000u);
    EXPECT_GT(q.bucketCount(), initial_buckets); // grew

    double last = -1.0;
    for (int i = 0; i < 20000; ++i) {
        SimEvent ev = q.pop();
        EXPECT_GE(ev.time, last);
        last = ev.time;
    }
    EXPECT_TRUE(q.empty());

    q.clear();
    SimEvent ev;
    ev.time = 5.0;
    q.push(ev);
    EXPECT_EQ(q.pop().seq, 0u); // clear reset the seq counter
    EXPECT_TRUE(q.empty());
}

// --- parse helpers ---------------------------------------------------------

TEST(StreamingNames, KindParsersRoundTrip)
{
    EXPECT_EQ(toString(MetricsKind::Exact), "exact");
    EXPECT_EQ(toString(MetricsKind::Sketch), "sketch");
    EXPECT_EQ(metricsKindFromName("exact"), MetricsKind::Exact);
    EXPECT_EQ(metricsKindFromName("sketch"), MetricsKind::Sketch);
    EXPECT_EQ(toString(CalendarKind::Heap), "heap");
    EXPECT_EQ(toString(CalendarKind::Bucket), "bucket");
    EXPECT_EQ(calendarKindFromName("heap"), CalendarKind::Heap);
    EXPECT_EQ(calendarKindFromName("bucket"), CalendarKind::Bucket);
    EXPECT_EXIT(calendarKindFromName("splay"),
                ::testing::ExitedWithCode(1), "heap, bucket");
    EXPECT_EXIT(metricsKindFromName("hdr"),
                ::testing::ExitedWithCode(1), "exact, sketch");
}
