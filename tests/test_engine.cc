/**
 * @file
 * Unit tests for the event-driven scheduling engine and the metrics:
 * completion semantics, idle handling, layer-granular preemption,
 * decision overhead, event recording, and metric formulas.
 */

#include <gtest/gtest.h>

#include <map>

#include "sched/engine.hh"
#include "sched/fcfs.hh"
#include "sched/sjf.hh"
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

} // namespace

TEST(Engine, SingleRequestFinishesAtArrivalPlusIsolated)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.5)};
    FcfsScheduler fcfs;
    SchedulerEngine engine;
    SimResult r = engine.run(reqs, fcfs);

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
    SchedulerEngine engine;
    engine.run(reqs, fcfs);
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
    SchedulerEngine engine;
    SimResult r = engine.run(reqs, fcfs);
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
    SchedulerEngine engine;
    SimResult r = engine.run(reqs, sjf);
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
    SchedulerEngine engine;
    engine.run(reqs, sjf);
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
    SchedulerEngine engine(cfg);
    engine.run(reqs, fcfs);
    // Two layers, one decision before each.
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 0.2 + 2 * 0.05);
}

TEST(Engine, RecordsExecutionSlots)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "short", 0.0)};
    FcfsScheduler fcfs;
    EngineConfig cfg;
    cfg.recordEvents = true;
    SchedulerEngine engine(cfg);
    SimResult r = engine.run(reqs, fcfs);
    ASSERT_EQ(r.events.size(), 2u);
    EXPECT_EQ(r.events[0].requestId, 0);
    EXPECT_EQ(r.events[0].layer, 0u);
    EXPECT_DOUBLE_EQ(r.events[0].start, 0.0);
    EXPECT_DOUBLE_EQ(r.events[0].end, 0.1);
    EXPECT_DOUBLE_EQ(r.events[1].start, 0.1);
}

TEST(Engine, DecisionCountMatchesLayerTotal)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.0),
                                 w.request(1, "short", 0.0)};
    FcfsScheduler fcfs;
    SchedulerEngine engine;
    SimResult r = engine.run(reqs, fcfs);
    // One decision per executed layer.
    EXPECT_EQ(r.decisions, 6u);
}

TEST(Engine, RerunAfterResetIsIdentical)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.0),
                                 w.request(1, "short", 0.3)};
    SjfScheduler sjf(w.lut);
    SchedulerEngine engine;
    SimResult r1 = engine.run(reqs, sjf);
    SimResult r2 = engine.run(reqs, sjf);
    EXPECT_DOUBLE_EQ(r1.metrics.antt, r2.metrics.antt);
    EXPECT_EQ(r1.preemptions, r2.preemptions);
}

TEST(Engine, LastRunEndTracksExecution)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.0)};
    FcfsScheduler fcfs;
    SchedulerEngine engine;
    engine.run(reqs, fcfs);
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
    SchedulerEngine engine(cfg);
    SimResult r = engine.run(reqs, sjf);
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
    SchedulerEngine engine(cfg);
    SimResult r = engine.run(reqs, fcfs);
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
    SchedulerEngine engine(cfg);
    SimResult r = engine.run(reqs, fcfs);
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
    EngineConfig cfg;
    cfg.recordEvents = true;
    SchedulerEngine engine(cfg);
    SimResult r = engine.run(reqs, sjf);
    ASSERT_FALSE(r.events.empty());
    EXPECT_DOUBLE_EQ(r.events.front().start, 0.0);
    for (size_t e = 1; e < r.events.size(); ++e) {
        EXPECT_NEAR(r.events[e].start, r.events[e - 1].end, 1e-12);
    }
}

TEST(Engine, EventsCoverEveryLayerExactlyOnce)
{
    World w = twoModelWorld();
    std::vector<Request> reqs = {w.request(0, "long", 0.0),
                                 w.request(1, "short", 0.1)};
    SjfScheduler sjf(w.lut);
    EngineConfig cfg;
    cfg.recordEvents = true;
    SchedulerEngine engine(cfg);
    SimResult r = engine.run(reqs, sjf);
    std::map<int, std::vector<size_t>> layers_seen;
    for (const auto& ev : r.events)
        layers_seen[ev.requestId].push_back(ev.layer);
    ASSERT_EQ(layers_seen[0].size(), 4u);
    ASSERT_EQ(layers_seen[1].size(), 2u);
    // Per request, layers execute in order with no repeats.
    for (auto& [id, layers] : layers_seen) {
        for (size_t k = 0; k < layers.size(); ++k)
            EXPECT_EQ(layers[k], k) << "request " << id;
    }
}

TEST(Engine, RequestWithoutTracePanics)
{
    std::vector<Request> reqs(1);
    reqs[0].id = 0;
    FcfsScheduler fcfs;
    SchedulerEngine engine;
    EXPECT_DEATH(engine.run(reqs, fcfs), "without a trace");
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
