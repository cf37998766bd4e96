/**
 * @file
 * Unit tests for the ASCII Gantt renderer.
 */

#include <gtest/gtest.h>

#include "exp/gantt.hh"
#include "sched/engine.hh"
#include "sched/fcfs.hh"
#include "sched/sjf.hh"
#include "test_helpers.hh"

using namespace dysta;
using dysta::test::World;

namespace {

struct GanttFixture
{
    World world;
    std::vector<Request> reqs;
    SimResult result;

    GanttFixture()
    {
        world.addModel("long", {1.0, 1.0, 1.0, 1.0});
        world.addModel("short", {0.1, 0.1});
        reqs = {world.request(0, "long", 0.0),
                world.request(1, "short", 0.5)};
        SjfScheduler sjf(world.lut);
        EngineConfig cfg;
        cfg.recordEvents = true;
        SchedulerEngine engine(cfg);
        result = engine.run(reqs, sjf);
    }
};

} // namespace

TEST(Gantt, RendersOneLanePerRequest)
{
    GanttFixture f;
    std::string out = renderGantt(f.result.events, f.reqs);
    EXPECT_NE(out.find("long"), std::string::npos);
    EXPECT_NE(out.find("short"), std::string::npos);
    EXPECT_NE(out.find('#'), std::string::npos);
    // Two request lanes plus the header line.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(Gantt, PreemptionShowsAsGapInLongLane)
{
    GanttFixture f;
    GanttConfig cfg;
    cfg.columns = 42; // 4.2 s span -> 0.1 s per column
    std::string out = renderGantt(f.result.events, f.reqs, cfg);
    // The long request's lane must contain an interior gap where the
    // short one ran (1.0 .. 1.2 s).
    size_t lane_pos = out.find("long");
    ASSERT_NE(lane_pos, std::string::npos);
    std::string lane = out.substr(out.find('|', lane_pos) + 1, 42);
    EXPECT_NE(lane.find("#.."), std::string::npos);
    EXPECT_NE(lane.find("..#"), std::string::npos);
}

TEST(Gantt, WindowClipsEvents)
{
    GanttFixture f;
    GanttConfig cfg;
    cfg.windowStart = 0.0;
    cfg.windowEnd = 0.9; // before the short request ever runs
    std::string out = renderGantt(f.result.events, f.reqs, cfg);
    EXPECT_NE(out.find("long"), std::string::npos);
    EXPECT_EQ(out.find("short"), std::string::npos);
}

TEST(Gantt, MaxRowsKeepsBusiestRequests)
{
    GanttFixture f;
    GanttConfig cfg;
    cfg.maxRows = 1;
    std::string out = renderGantt(f.result.events, f.reqs, cfg);
    // The long request dominates busy time and must be the survivor.
    EXPECT_NE(out.find("long"), std::string::npos);
    EXPECT_EQ(out.find("short"), std::string::npos);
}

TEST(Gantt, EmptyEventsHandled)
{
    std::vector<ClusterEvent> none;
    std::vector<Request> reqs;
    EXPECT_NE(renderGantt(none, reqs).find("no schedule events"),
              std::string::npos);
}
