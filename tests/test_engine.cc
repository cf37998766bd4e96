/**
 * @file
 * Unit tests for the event-driven scheduling engine and the metrics:
 * completion semantics, idle handling, layer-granular preemption,
 * decision overhead, layer-slice recording, and metric formulas.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "sched/engine.hh"
#include "sched/fcfs.hh"
#include "sched/sjf.hh"
#include "serve/dispatcher.hh"
#include "sim/core.hh"
#include "test_helpers.hh"

using namespace dysta;
using dysta::test::World;

namespace {

World
twoModelWorld()
{
    World w;
    w.addModel("long", {1.0, 1.0, 1.0, 1.0}); // 4 s isolated
    w.addModel("short", {0.1, 0.1});          // 0.2 s isolated
    return w;
}

/** One-node run of `reqs` whose layer slices `sink` records. */
SimResult
runRecorded(std::vector<Request>& reqs, Scheduler& policy,
            Telemetry& sink)
{
    SimConfig sim = singleNodeSimConfig();
    sim.telemetry = &sink;
    return runSingleNode(sim, reqs, policy);
}

} // namespace

TEST(Engine, SingleRequestFinishesAtArrivalPlusIsolated)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.5)};
    FcfsScheduler fcfs;
    SimResult r = runSingleNode(singleNodeSimConfig(), reqs, fcfs);

    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 4.5);
    EXPECT_TRUE(reqs[0].done());
    EXPECT_EQ(r.metrics.completed, 1u);
    EXPECT_DOUBLE_EQ(r.metrics.antt, 1.0);
    EXPECT_DOUBLE_EQ(r.metrics.violationRate, 0.0);
}

TEST(Engine, IdleGapJumpsToNextArrival)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "short", 0.0),
                                 w.request(1, "short", 10.0)};
    FcfsScheduler fcfs;
    runSingleNode(singleNodeSimConfig(), reqs, fcfs);
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 0.2);
    EXPECT_DOUBLE_EQ(reqs[1].finishTime, 10.2);
}

TEST(Engine, FcfsDoesNotPreempt)
{
    World w = twoModelWorld();
    // Short request arrives while the long one runs.
    std::vector<Request> reqs = {w.request(0, "long", 0.0),
                                 w.request(1, "short", 0.5)};
    FcfsScheduler fcfs;
    SimResult r = runSingleNode(singleNodeSimConfig(), reqs, fcfs);
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 4.0);
    EXPECT_DOUBLE_EQ(reqs[1].finishTime, 4.2);
    EXPECT_EQ(r.preemptions, 0u);
}

TEST(Engine, SjfPreemptsAtLayerBoundary)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.0),
                                 w.request(1, "short", 0.5)};
    SjfScheduler sjf(w.lut);
    SimResult r = runSingleNode(singleNodeSimConfig(), reqs, sjf);
    // The short job preempts after the long job's first layer ends
    // at t=1, runs 1.0..1.2; the long job resumes and ends at 4.2.
    EXPECT_DOUBLE_EQ(reqs[1].finishTime, 1.2);
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 4.2);
    EXPECT_GE(r.preemptions, 1u);
}

TEST(Engine, ExecutionNeverPreemptsWithinLayer)
{
    World w;
    w.addModel("chunky", {2.0});
    w.addModel("tiny", {0.01});
    // The tiny job arrives mid-layer; it must wait for the boundary.
    std::vector<Request> reqs = {w.request(0, "chunky", 0.0),
                                 w.request(1, "tiny", 0.5)};
    SjfScheduler sjf(w.lut);
    runSingleNode(singleNodeSimConfig(), reqs, sjf);
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 2.0);
    EXPECT_DOUBLE_EQ(reqs[1].finishTime, 2.01);
}

TEST(Engine, DecisionOverheadAddsTime)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "short", 0.0)};
    FcfsScheduler fcfs;
    EngineConfig cfg;
    cfg.decisionOverheadSec = 0.05;
    runSingleNode(singleNodeSimConfig(cfg), reqs, fcfs);
    // Two layers, one decision before each.
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 0.2 + 2 * 0.05);
}

TEST(Engine, RecordsExecutionSlots)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "short", 0.0)};
    FcfsScheduler fcfs;
    Telemetry sink;
    runRecorded(reqs, fcfs, sink);
    std::vector<TelemetryEvent> slices = test::layerSlices(sink);
    ASSERT_EQ(slices.size(), 2u);
    EXPECT_EQ(slices[0].request, 0);
    EXPECT_EQ(slices[0].layer, 0);
    EXPECT_DOUBLE_EQ(slices[0].start, 0.0);
    EXPECT_DOUBLE_EQ(slices[0].time, 0.1);
    EXPECT_DOUBLE_EQ(slices[1].start, 0.1);
}

TEST(Engine, DecisionCountMatchesLayerTotal)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.0),
                                 w.request(1, "short", 0.0)};
    FcfsScheduler fcfs;
    SimResult r = runSingleNode(singleNodeSimConfig(), reqs, fcfs);
    // One decision per executed layer.
    EXPECT_EQ(r.decisions, 6u);
}

TEST(Engine, RerunAfterResetIsIdentical)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.0),
                                 w.request(1, "short", 0.3)};
    SjfScheduler sjf(w.lut);
    SimResult r1 = runSingleNode(singleNodeSimConfig(), reqs, sjf);
    SimResult r2 = runSingleNode(singleNodeSimConfig(), reqs, sjf);
    EXPECT_DOUBLE_EQ(r1.metrics.antt, r2.metrics.antt);
    EXPECT_EQ(r1.preemptions, r2.preemptions);
}

TEST(Engine, LastRunEndTracksExecution)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.0)};
    FcfsScheduler fcfs;
    runSingleNode(singleNodeSimConfig(), reqs, fcfs);
    EXPECT_DOUBLE_EQ(reqs[0].lastRunEnd, 4.0);
}

TEST(Engine, BlockGranularityDefersPreemption)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.0),
                                 w.request(1, "short", 0.5)};
    SjfScheduler sjf(w.lut);
    EngineConfig cfg;
    cfg.layerBlockSize = 4; // whole model in one block
    SimResult r = runSingleNode(singleNodeSimConfig(cfg), reqs, sjf);
    // The long job runs all four layers non-preemptibly; the short
    // one cannot jump in at t=1 as it does with per-layer blocks.
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 4.0);
    EXPECT_DOUBLE_EQ(reqs[1].finishTime, 4.2);
    EXPECT_EQ(r.preemptions, 0u);
}

TEST(Engine, BlockGranularityReducesDecisions)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.0),
                                 w.request(1, "long", 0.0)};
    FcfsScheduler fcfs;
    EngineConfig cfg;
    cfg.layerBlockSize = 2;
    SimResult r = runSingleNode(singleNodeSimConfig(cfg), reqs, fcfs);
    // 8 layers in blocks of 2 -> 4 decisions.
    EXPECT_EQ(r.decisions, 4u);
    EXPECT_EQ(r.metrics.completed, 2u);
}

TEST(Engine, BlockLargerThanModelIsHarmless)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "short", 0.0)};
    FcfsScheduler fcfs;
    EngineConfig cfg;
    cfg.layerBlockSize = 100;
    SimResult r = runSingleNode(singleNodeSimConfig(cfg), reqs, fcfs);
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 0.2);
    EXPECT_EQ(r.decisions, 1u);
}

TEST(Engine, EventsAreGaplessWhileWorkIsQueued)
{
    // Property: between the first arrival and the last completion,
    // the accelerator never idles while requests wait — consecutive
    // events either abut or are separated only by empty-queue gaps
    // (which cannot happen here since all requests arrive at t=0).
    World w = twoModelWorld();
    std::vector<Request> reqs;
    for (int i = 0; i < 10; ++i)
        reqs.push_back(w.request(i, i % 2 ? "long" : "short", 0.0));
    SjfScheduler sjf(w.lut);
    Telemetry sink;
    runRecorded(reqs, sjf, sink);
    std::vector<TelemetryEvent> slices = test::layerSlices(sink);
    ASSERT_FALSE(slices.empty());
    EXPECT_DOUBLE_EQ(slices.front().start, 0.0);
    for (size_t e = 1; e < slices.size(); ++e) {
        EXPECT_NEAR(slices[e].start, slices[e - 1].time, 1e-12);
    }
}

TEST(Engine, EventsCoverEveryLayerExactlyOnce)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.0),
                                 w.request(1, "short", 0.1)};
    SjfScheduler sjf(w.lut);
    Telemetry sink;
    runRecorded(reqs, sjf, sink);
    std::map<int, std::vector<int>> layers_seen;
    for (const TelemetryEvent& ev : test::layerSlices(sink))
        layers_seen[ev.request].push_back(ev.layer);
    ASSERT_EQ(layers_seen[0].size(), 4u);
    ASSERT_EQ(layers_seen[1].size(), 2u);
    // Per request, layers execute in order with no repeats.
    for (auto& [id, layers] : layers_seen) {
        for (size_t k = 0; k < layers.size(); ++k)
            EXPECT_EQ(layers[k], static_cast<int>(k))
                << "request " << id;
    }
}

namespace {

/**
 * Counters and the full schedule of one run, one line per executed
 * layer slice `sink` recorded: "n<node> r<request> L<layer>
 * <start>-<end>" in ms.
 */
std::string
scheduleLog(const SimResult& r, const Telemetry& sink)
{
    std::string log = "events=" + std::to_string(r.eventsProcessed) +
                      " decisions=" + std::to_string(r.decisions) +
                      " preemptions=" +
                      std::to_string(r.preemptions) + "\n";
    char line[96];
    for (const TelemetryEvent& e : test::layerSlices(sink)) {
        std::snprintf(line, sizeof line, "n%d r%d L%d %.3f-%.3f\n",
                      e.node, e.request, e.layer, e.start * 1e3,
                      e.time * 1e3);
        log += line;
    }
    return log;
}

/**
 * Ties at layer boundaries: 1 ms layers on a node that stays busy,
 * with arrivals and node changes scheduled at exactly its layer
 * ends. `layerEnd(k)` repeats the node's own arithmetic (a decision
 * at every 1-layer block boundary, then the layer), so the times tie
 * bit for bit.
 */
class LayerBoundaryTies
{
  public:
    explicit LayerBoundaryTies(double overhead) : overhead(overhead)
    {
        world.addModel("long", {1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3});
        world.addModel("short", {1e-3, 1e-3});
    }

    double
    layerEnd(int k) const
    {
        double t = 0.0;
        for (int i = 0; i < k; ++i)
            t = (t + overhead) + 1e-3;
        return t;
    }

    SimResult
    run(size_t nodes, std::vector<Request>& reqs,
        std::vector<NodeEvent> node_events, size_t block = 1)
    {
        SimConfig cfg = homogeneousCluster(nodes);
        for (NodeProfile& p : cfg.nodes) {
            p.decisionOverheadSec = overhead;
            p.layerBlockSize = block;
        }
        cfg.telemetry = &sink;
        cfg.nodeEvents = std::move(node_events);
        LeastOutstandingDispatcher disp;
        return runSimulation(cfg, reqs, disp,
                             [this](const NodeProfile&, int) {
                                 return std::make_unique<SjfScheduler>(
                                     world.lut);
                             });
    }

    World world;
    double overhead;
    /** Records the slices of the latest run. */
    Telemetry sink;
};

} // namespace

TEST(Engine, LayerBoundaryTiesArePinned)
{
    // Arrival sorts before LayerComplete at the same instant, so the
    // short request arriving at a layer end preempts right there;
    // NodeChange sorts after it, so a fail at a layer end loses the
    // step that just started, not the one that just finished.
    const char* const expected[2][3] = {
        {
            // decision overhead 0, one node, block 1
            "events=24 decisions=16 preemptions=1\n"
            "n0 r0 L0 0.000-1.000\nn0 r0 L1 1.000-2.000\n"
            "n0 r1 L0 2.000-3.000\nn0 r1 L1 3.000-4.000\n"
            "n0 r0 L2 4.000-5.000\nn0 r0 L3 5.000-6.000\n"
            "n0 r0 L4 6.000-7.000\nn0 r0 L5 7.000-8.000\n"
            "n0 r3 L0 8.000-9.000\nn0 r3 L1 9.000-10.000\n"
            "n0 r2 L0 10.000-11.000\nn0 r2 L1 11.000-12.000\n"
            "n0 r2 L2 12.000-13.000\nn0 r2 L3 13.000-14.000\n"
            "n0 r2 L4 14.000-15.000\nn0 r2 L5 15.000-16.000\n",
            // decision overhead 0, one node, block 2
            "events=24 decisions=8 preemptions=1\n"
            "n0 r0 L0 0.000-1.000\nn0 r0 L1 1.000-2.000\n"
            "n0 r1 L0 2.000-3.000\nn0 r1 L1 3.000-4.000\n"
            "n0 r0 L2 4.000-5.000\nn0 r0 L3 5.000-6.000\n"
            "n0 r0 L4 6.000-7.000\nn0 r0 L5 7.000-8.000\n"
            "n0 r3 L0 8.000-9.000\nn0 r3 L1 9.000-10.000\n"
            "n0 r2 L0 10.000-11.000\nn0 r2 L1 11.000-12.000\n"
            "n0 r2 L2 12.000-13.000\nn0 r2 L3 13.000-14.000\n"
            "n0 r2 L4 14.000-15.000\nn0 r2 L5 15.000-16.000\n",
            // decision overhead 0, two nodes
            "events=29 decisions=19 preemptions=0\n"
            "n0 r0 L0 0.000-1.000\nn1 r1 L0 0.000-1.000\n"
            "n0 r0 L1 1.000-2.000\nn1 r1 L1 1.000-2.000\n"
            "n0 r0 L2 2.000-3.000\nn0 r0 L3 3.000-4.000\n"
            "n0 r0 L4 4.000-5.000\nn0 r0 L5 5.000-6.000\n"
            "n1 r2 L0 5.000-6.000\nn0 r1 L0 6.000-7.000\n"
            "n1 r2 L1 6.000-7.000\nn0 r1 L1 7.000-8.000\n"
            "n1 r3 L0 7.000-8.000\nn0 r1 L2 8.000-9.000\n"
            "n1 r3 L1 8.000-9.000\nn0 r1 L3 9.000-10.000\n"
            "n0 r1 L4 10.000-11.000\nn0 r1 L5 11.000-12.000\n"},
        {
            // decision overhead 0.25 ms, one node, block 1
            "events=24 decisions=16 preemptions=1\n"
            "n0 r0 L0 0.250-1.250\nn0 r0 L1 1.500-2.500\n"
            "n0 r1 L0 2.750-3.750\nn0 r1 L1 4.000-5.000\n"
            "n0 r0 L2 5.250-6.250\nn0 r0 L3 6.500-7.500\n"
            "n0 r0 L4 7.750-8.750\nn0 r0 L5 9.000-10.000\n"
            "n0 r3 L0 10.250-11.250\nn0 r3 L1 11.500-12.500\n"
            "n0 r2 L0 12.750-13.750\nn0 r2 L1 14.000-15.000\n"
            "n0 r2 L2 15.250-16.250\nn0 r2 L3 16.500-17.500\n"
            "n0 r2 L4 17.750-18.750\nn0 r2 L5 19.000-20.000\n",
            // decision overhead 0.25 ms, one node, block 2
            "events=24 decisions=8 preemptions=0\n"
            "n0 r0 L0 0.250-1.250\nn0 r0 L1 1.250-2.250\n"
            "n0 r0 L2 2.500-3.500\nn0 r0 L3 3.500-4.500\n"
            "n0 r0 L4 4.750-5.750\nn0 r0 L5 5.750-6.750\n"
            "n0 r1 L0 7.000-8.000\nn0 r1 L1 8.000-9.000\n"
            "n0 r3 L0 9.250-10.250\nn0 r3 L1 10.250-11.250\n"
            "n0 r2 L0 11.500-12.500\nn0 r2 L1 12.500-13.500\n"
            "n0 r2 L2 13.750-14.750\nn0 r2 L3 14.750-15.750\n"
            "n0 r2 L4 16.000-17.000\nn0 r2 L5 17.000-18.000\n",
            // decision overhead 0.25 ms, two nodes
            "events=29 decisions=19 preemptions=0\n"
            "n0 r0 L0 0.250-1.250\nn1 r1 L0 0.250-1.250\n"
            "n0 r0 L1 1.500-2.500\nn1 r1 L1 1.500-2.500\n"
            "n0 r0 L2 2.750-3.750\nn0 r0 L3 4.000-5.000\n"
            "n0 r0 L4 5.250-6.250\nn0 r0 L5 6.500-7.500\n"
            "n1 r2 L0 6.500-7.500\nn0 r1 L0 7.750-8.750\n"
            "n1 r2 L1 7.750-8.750\nn0 r1 L1 9.000-10.000\n"
            "n1 r3 L0 9.000-10.000\nn0 r1 L2 10.250-11.250\n"
            "n1 r3 L1 10.250-11.250\nn0 r1 L3 11.500-12.500\n"
            "n0 r1 L4 12.750-13.750\nn0 r1 L5 14.000-15.000\n"}};
    for (int o = 0; o < 2; ++o) {
        LayerBoundaryTies ties(o == 0 ? 0.0 : 0.25e-3);
        World& w = ties.world;
        // One node: r1, r2 and r3 arrive at its second, third and
        // sixth layer ends (with 2-layer blocks the overhead run
        // decides only every other layer, so only overhead 0 ties).
        for (size_t block : {1, 2}) {
            std::vector<Request> reqs = {
                w.request(0, "long", 0.0),
                w.request(1, "short", ties.layerEnd(2)),
                w.request(2, "long", ties.layerEnd(3)),
                w.request(3, "short", ties.layerEnd(6))};
            SimResult r = ties.run(1, reqs, {}, block);
            EXPECT_EQ(scheduleLog(r, ties.sink), expected[o][block - 1])
                << "overhead " << ties.overhead << " block " << block;
        }
        // Two nodes: node 1 fails at its second layer end, so the
        // step it just started goes stale, and recovers at node 0's
        // fourth; r2 and r3 arrive at node 0's fifth.
        std::vector<Request> reqs = {
            w.request(0, "long", 0.0), w.request(1, "long", 0.0),
            w.request(2, "short", ties.layerEnd(5)),
            w.request(3, "short", ties.layerEnd(5))};
        SimResult r = ties.run(
            2, reqs,
            {{ties.layerEnd(2), 1, NodeEventKind::Fail},
             {ties.layerEnd(4), 1, NodeEventKind::Recover}});
        EXPECT_EQ(scheduleLog(r, ties.sink), expected[o][2])
            << "overhead " << ties.overhead << " two nodes";
    }
}

TEST(Engine, RequestWithoutTracePanics)
{
    std::vector<Request> reqs(1);
    reqs[0].id = 0;
    FcfsScheduler fcfs;
    EXPECT_DEATH(runSingleNode(singleNodeSimConfig(), reqs, fcfs),
                 "without a trace");
}

TEST(Engine, RunSingleNodeRejectsAFleet)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "short", 0.0)};
    FcfsScheduler fcfs;
    EXPECT_EXIT(runSingleNode(homogeneousCluster(2), reqs, fcfs),
                ::testing::ExitedWithCode(1),
                "runSingleNode: need a one-node config, got 2 nodes");
}

// --- Request accessors ---

TEST(Request, TrueRemainingTracksProgress)
{
    World w = twoModelWorld();
    Request req = w.request(0, "long", 0.0);
    EXPECT_DOUBLE_EQ(req.trueRemaining(), 4.0);
    req.nextLayer = 3;
    EXPECT_DOUBLE_EQ(req.trueRemaining(), 1.0);
    req.nextLayer = 4;
    EXPECT_DOUBLE_EQ(req.trueRemaining(), 0.0);
}

TEST(Request, DeadlineUsesReferenceLatency)
{
    World w = twoModelWorld();
    Request req = w.request(0, "short", 2.0, 10.0);
    EXPECT_DOUBLE_EQ(req.deadline, 2.0 + 10.0 * 0.2);
}

TEST(Request, ViolationAndTurnaround)
{
    World w = twoModelWorld();
    Request req = w.request(0, "short", 0.0, 10.0);
    req.finishTime = 1.0;
    EXPECT_DOUBLE_EQ(req.normalizedTurnaround(), 5.0);
    EXPECT_FALSE(req.violated()); // deadline = 2.0
    req.finishTime = 2.5;
    EXPECT_TRUE(req.violated());
}

// --- Metrics ---

TEST(Metrics, HandComputedAggregates)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "short", 0.0),
                                 w.request(1, "short", 1.0)};
    reqs[0].finishTime = 0.4;  // turnaround 0.4 -> nt 2.0
    reqs[0].nextLayer = 2;
    reqs[1].finishTime = 1.2;  // turnaround 0.2 -> nt 1.0
    reqs[1].nextLayer = 2;

    Metrics m = computeMetrics(reqs);
    EXPECT_DOUBLE_EQ(m.antt, 1.5);
    EXPECT_DOUBLE_EQ(m.violationRate, 0.0);
    EXPECT_DOUBLE_EQ(m.stp, 0.5 + 1.0);
    EXPECT_DOUBLE_EQ(m.makespan, 1.2);
    EXPECT_NEAR(m.throughput, 2.0 / 1.2, 1e-12);
    EXPECT_EQ(m.completed, 2u);
}

TEST(Metrics, ViolationCounting)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "short", 0.0, 2.0),
                                 w.request(1, "short", 0.0, 2.0)};
    // Deadline = 0.4 for both.
    reqs[0].finishTime = 0.39;
    reqs[1].finishTime = 0.41;
    Metrics m = computeMetrics(reqs);
    EXPECT_DOUBLE_EQ(m.violationRate, 0.5);
}

TEST(Metrics, EmptyInputGivesZeroes)
{
    Metrics m = computeMetrics({});
    EXPECT_DOUBLE_EQ(m.antt, 0.0);
    EXPECT_EQ(m.completed, 0u);
}

TEST(Metrics, UnfinishedRequestPanics)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "short", 0.0)};
    EXPECT_DEATH(computeMetrics(reqs), "unfinished");
}
