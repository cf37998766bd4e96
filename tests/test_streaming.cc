/**
 * @file
 * Tests for the streaming megascale core: StreamingMetrics (exact
 * replay and P² sketch), streaming-vs-materialized bit-identity on
 * single-node and cluster runs under both metrics kinds (including failures/migration, which
 * exercise arena recycling), the RequestArena free list, and the
 * BucketCalendar's event-order equivalence with the binary heap, and
 * both calendars against an independent std::multiset reference,
 * including the deferred-pop vacancy edges of their shared EventHeap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <type_traits>
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
    SchedulerEngine engine;
    SimResult materialized = engine.run(reqs, *policy_a);

    WorkloadArrivalSource source(wl, ctx().registry);
    EXPECT_EQ(source.total(), reqs.size());
    auto policy_b = makeSchedulerByName("Dysta", ctx());
    SimResult streaming = engine.run(source, *policy_b);

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
            EXPECT_EQ(metricsDifferences(run.metrics, reference.metrics),
                      std::vector<std::string>{}) << what;
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
    // Every grow and shrink keeps the count a power of two, which the
    // mask indexing of windows relies on.
    size_t last_count = initial_buckets;
    int resizes = 0;
    auto checkResize = [&] {
        size_t n = q.bucketCount();
        if (n == last_count)
            return;
        ++resizes;
        EXPECT_EQ(n & (n - 1), 0u) << n << " buckets";
        last_count = n;
    };
    for (int i = 0; i < 20000; ++i) {
        SimEvent ev;
        t += rng.exponential(50.0);
        ev.time = t;
        q.push(ev);
        checkResize();
    }
    EXPECT_EQ(q.size(), 20000u);
    EXPECT_GT(q.bucketCount(), initial_buckets); // grew
    int grows = resizes;
    EXPECT_GT(grows, 0);

    double last = -1.0;
    for (int i = 0; i < 20000; ++i) {
        SimEvent ev = q.pop();
        EXPECT_GE(ev.time, last);
        last = ev.time;
        checkResize();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_GT(resizes, grows); // shrank
    EXPECT_EQ(q.bucketCount(), initial_buckets);

    q.clear();
    SimEvent ev;
    ev.time = 5.0;
    q.push(ev);
    EXPECT_EQ(q.pop().seq, 0u); // clear reset the seq counter
    EXPECT_TRUE(q.empty());
}

// --- both calendars vs a std::multiset reference ----------------------------

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
 * Drive one calendar through a causal random interleaving of push,
 * pop, top (EventQueue only: the Calendar interface has no top) and
 * clear, and require every pop and top to match the minimum of a
 * std::multiset holding every pending event under operator<. Times
 * sit on a coarse grid and kinds and nodes on small ranges, so exact
 * (time, kind, node) ties are common and only seq separates them.
 */
template <typename Cal>
void
checkAgainstReference(uint64_t seed)
{
    Cal cal;
    std::multiset<SimEvent> ref;
    uint64_t seq = 0;
    Rng rng(seed);
    double now = 0.0;
    size_t pops = 0;
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
            cal.push(ev);
            ev.seq = seq++;
            ref.insert(ev);
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
        } else if (roll < 0.995) {
            if constexpr (std::is_same_v<Cal, EventQueue>) {
                const SimEvent& top = cal.top();
                ASSERT_EQ(top.seq, ref.begin()->seq)
                    << "seed " << seed << " top after pop " << pops;
            }
        } else {
            cal.clear();
            ref.clear();
            seq = 0;
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

/** The deferred-pop vacancy edges, the same on both calendars. */
template <typename Cal>
void
checkVacancyEdges()
{
    Cal cal;
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
}

} // namespace

TEST(Calendars, MatchMultisetReferenceOnRandomInterleavings)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        checkAgainstReference<EventQueue>(seed * 7919);
        checkAgainstReference<BucketCalendar>(seed * 7919);
    }
}

TEST(Calendars, DeferredPopVacancyEdges)
{
    checkVacancyEdges<EventQueue>();
    checkVacancyEdges<BucketCalendar>();

    // pop -> top settles the vacancy and returns the next minimum.
    EventQueue heap;
    heap.push(makeEvent(2.0));
    heap.push(makeEvent(1.0));
    heap.push(makeEvent(3.0));
    EXPECT_EQ(heap.pop().time, 1.0);
    EXPECT_EQ(heap.top().time, 2.0);
    EXPECT_EQ(heap.size(), 2u);
    EXPECT_EQ(heap.pop().time, 2.0);
    EXPECT_EQ(heap.top().time, 3.0);
}

TEST(Calendars, BucketResizesWhileABucketIsVacant)
{
    // Until the first resize the width is 1 s and there are 8
    // buckets, so time t lands in bucket floor(t) mod 8.
    BucketCalendar q;
    ASSERT_EQ(q.bucketCount(), 8u);
    for (int i = 0; i < 16; ++i)
        q.push(makeEvent(i + 0.1)); // two events per bucket
    EXPECT_EQ(q.pop().time, 0.1);   // bucket 0 is now vacant
    q.push(makeEvent(3.5));         // bucket 3
    q.push(makeEvent(5.5));         // bucket 5: 17 > 2 * 8, grow
    EXPECT_EQ(q.bucketCount(), 16u);
    EXPECT_EQ(q.size(), 17u);

    // Every shrink runs right after a pop, so it always drains a
    // vacant bucket too.
    std::vector<double> want = {1.1, 2.1, 3.1, 3.5,  4.1,  5.1,
                                5.5, 6.1, 7.1, 8.1,  9.1,  10.1,
                                11.1, 12.1, 13.1, 14.1, 15.1};
    for (double t : want)
        EXPECT_EQ(q.pop().time, t);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.bucketCount(), 8u);
}

TEST(Calendars, RejectNaNOrNegativeEventTimes)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(EventQueue().push(makeEvent(nan)),
                 "EventQueue: event time -?nan of kind LayerComplete");
    EXPECT_DEATH(EventQueue().push(makeEvent(-1.0, SimEventKind::Hedge)),
                 "EventQueue: event time -1.0+ of kind Hedge");
    EXPECT_DEATH(BucketCalendar().push(makeEvent(nan)),
                 "BucketCalendar: event time -?nan of kind LayerComplete");
    EXPECT_DEATH(
        BucketCalendar().push(makeEvent(-0.5, SimEventKind::Arrival)),
        "BucketCalendar: event time -0.50+ of kind Arrival");
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
