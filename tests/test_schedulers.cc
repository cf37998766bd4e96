/**
 * @file
 * Behavioural tests for the baseline schedulers on hand-crafted
 * scenarios, plus parameterized invariants every policy must hold.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/dysta.hh"
#include "sched/engine.hh"
#include "sched/fcfs.hh"
#include "sched/oracle.hh"
#include "sched/planaria.hh"
#include "sched/prema.hh"
#include "sched/sdrm3.hh"
#include "sched/sjf.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

using namespace dysta;
using dysta::test::World;

namespace {

World
standardWorld()
{
    World w;
    w.addModel("big", {0.5, 0.5, 0.5, 0.5});   // 2.0 s
    w.addModel("mid", {0.25, 0.25, 0.25});     // 0.75 s
    w.addModel("small", {0.05, 0.05});         // 0.1 s
    return w;
}

std::vector<const Request*>
view(const std::vector<Request>& reqs)
{
    std::vector<const Request*> v;
    for (const auto& r : reqs)
        v.push_back(&r);
    return v;
}

} // namespace

// --- FCFS ---

TEST(Fcfs, PicksEarliestArrival)
{
    World w = standardWorld();
    std::vector<Request> reqs = {w.request(0, "big", 2.0),
                                 w.request(1, "small", 1.0),
                                 w.request(2, "mid", 3.0)};
    FcfsScheduler fcfs;
    EXPECT_EQ(fcfs.selectNext(view(reqs), 5.0), 1u);
}

TEST(Fcfs, BreaksArrivalTiesById)
{
    World w = standardWorld();
    std::vector<Request> reqs = {w.request(7, "big", 1.0),
                                 w.request(3, "small", 1.0)};
    FcfsScheduler fcfs;
    EXPECT_EQ(fcfs.selectNext(view(reqs), 5.0), 1u);
}

// --- SJF ---

TEST(Sjf, PicksShortestEstimatedRemaining)
{
    World w = standardWorld();
    std::vector<Request> reqs = {w.request(0, "big", 0.0),
                                 w.request(1, "small", 0.0),
                                 w.request(2, "mid", 0.0)};
    SjfScheduler sjf(w.lut);
    EXPECT_EQ(sjf.selectNext(view(reqs), 0.0), 1u);
}

TEST(Sjf, RemainingShrinksWithProgress)
{
    World w = standardWorld();
    std::vector<Request> reqs = {w.request(0, "big", 0.0),
                                 w.request(1, "mid", 0.0)};
    // The big job has 3 of 4 layers done: 0.5 s left vs 0.75 s.
    reqs[0].nextLayer = 3;
    SjfScheduler sjf(w.lut);
    EXPECT_EQ(sjf.selectNext(view(reqs), 0.0), 0u);
}

// --- PREMA ---

TEST(Prema, StartsLikeSjf)
{
    World w = standardWorld();
    std::vector<Request> reqs = {w.request(0, "big", 0.0),
                                 w.request(1, "small", 0.0)};
    PremaScheduler prema(w.lut);
    prema.reset();
    prema.onArrival(reqs[0], 0.0);
    prema.onArrival(reqs[1], 0.0);
    // All tokens zero: threshold 0, every task is a candidate, SJF.
    EXPECT_EQ(prema.selectNext(view(reqs), 0.0), 1u);
}

TEST(Prema, TokensAgeLongWaiters)
{
    World w = standardWorld();
    std::vector<Request> reqs = {w.request(0, "big", 0.0),
                                 w.request(1, "small", 100.0)};
    PremaScheduler prema(w.lut);
    prema.reset();
    prema.onArrival(reqs[0], 0.0);
    prema.onArrival(reqs[1], 100.0);
    // The big job has waited 100 s (50 isolated times); the fresh
    // small job's token is 0 < half the max token, so the aged big
    // job must be chosen despite being longer.
    EXPECT_EQ(prema.selectNext(view(reqs), 100.0), 0u);
}

TEST(Prema, RunningTaskTokenFreezes)
{
    World w = standardWorld();
    std::vector<Request> reqs = {w.request(0, "big", 0.0),
                                 w.request(1, "mid", 0.0)};
    // The big job executed the whole time (waiting = 0), the mid job
    // waited 2 s => only the mid job is a candidate.
    reqs[0].nextLayer = 2;
    reqs[0].executedTime = 2.0;
    PremaScheduler prema(w.lut);
    prema.reset();
    prema.onArrival(reqs[0], 0.0);
    prema.onArrival(reqs[1], 0.0);
    EXPECT_EQ(prema.selectNext(view(reqs), 2.0), 1u);
}

// --- Planaria ---

TEST(Planaria, PicksLeastSlack)
{
    World w = standardWorld();
    // Same model, staggered arrivals: the earlier one has less slack.
    std::vector<Request> reqs = {w.request(0, "mid", 0.0),
                                 w.request(1, "mid", 5.0)};
    PlanariaScheduler planaria(w.lut);
    EXPECT_EQ(planaria.selectNext(view(reqs), 5.0), 0u);
}

TEST(Planaria, DemotesInfeasibleTasks)
{
    World w = standardWorld();
    std::vector<Request> reqs = {w.request(0, "mid", 0.0, 1.5),
                                 w.request(1, "mid", 10.0, 1.5)};
    // At t=11, request 0's deadline (1.125) is long blown; request 1
    // (deadline 11.125) is infeasible too? remaining 0.75 vs
    // 11.125-11=0.125 -> also infeasible. Make request 1 feasible by
    // progress: 2 of 3 layers done -> remaining 0.25 > 0.125, still
    // infeasible; use a later arrival instead.
    reqs[1] = w.request(1, "mid", 10.8, 1.5); // deadline 11.925
    PlanariaScheduler planaria(w.lut);
    // Request 1 is feasible (slack 0.175), request 0 is hopeless:
    // the feasible one wins although its slack is larger than the
    // (negative) slack of request 0.
    EXPECT_EQ(planaria.selectNext(view(reqs), 11.0), 1u);
}

TEST(Planaria, AmongInfeasibleRunsShortest)
{
    World w = standardWorld();
    std::vector<Request> reqs = {w.request(0, "big", 0.0, 1.0),
                                 w.request(1, "small", 0.0, 1.0)};
    PlanariaScheduler planaria(w.lut);
    // At t=100 both deadlines are blown; drain the short one first.
    EXPECT_EQ(planaria.selectNext(view(reqs), 100.0), 1u);
}

// --- SDRM3 ---

TEST(Sdrm3, PrefersUrgentTask)
{
    World w = standardWorld();
    std::vector<Request> reqs = {w.request(0, "mid", 0.0, 2.0),
                                 w.request(1, "mid", 1.2, 2.0)};
    // At t=1.3: request 0 deadline 1.5 (urgent), request 1 deadline
    // 2.7 (relaxed).
    Sdrm3Scheduler sdrm3(w.lut);
    EXPECT_EQ(sdrm3.selectNext(view(reqs), 1.3), 0u);
}

TEST(Sdrm3, BlownDeadlinePressureKeepsMounting)
{
    World w = standardWorld();
    std::vector<Request> reqs = {w.request(0, "mid", 0.0, 2.0),
                                 w.request(1, "mid", 0.5, 2.0)};
    // Both blown at t=50; the one later past its deadline dominates.
    Sdrm3Scheduler sdrm3(w.lut);
    EXPECT_EQ(sdrm3.selectNext(view(reqs), 50.0), 0u);
}

// --- Oracle ---

TEST(Oracle, UsesGroundTruthNotAverages)
{
    World w;
    // Two samples with very different true latencies; the LUT
    // average is 1.0 s for both requests.
    w.addModelSamples(
        "vary", {dysta::test::trace({1.8}, {0.5}),
                 dysta::test::trace({0.2}, {0.5})});
    std::vector<Request> reqs = {
        w.request(0, "vary", 0.0, 10.0, 0),  // true 1.8 s
        w.request(1, "vary", 0.0, 10.0, 1)}; // true 0.2 s
    OracleScheduler oracle;
    // The oracle sees the true remaining times and picks the short
    // sample; an average-based SJF would tie.
    EXPECT_EQ(oracle.selectNext(view(reqs), 0.0), 1u);
}

// --- Invariants common to every policy ---

class SchedulerInvariants
    : public ::testing::TestWithParam<std::string>
{
  protected:
    World world = standardWorld();

    std::unique_ptr<Scheduler>
    make()
    {
        const std::string& name = GetParam();
        if (name == "FCFS")
            return std::make_unique<FcfsScheduler>();
        if (name == "SJF")
            return std::make_unique<SjfScheduler>(world.lut);
        if (name == "PREMA")
            return std::make_unique<PremaScheduler>(world.lut);
        if (name == "Planaria")
            return std::make_unique<PlanariaScheduler>(world.lut);
        if (name == "SDRM3")
            return std::make_unique<Sdrm3Scheduler>(world.lut);
        if (name == "Oracle")
            return std::make_unique<OracleScheduler>();
        if (name == "Dysta")
            return std::make_unique<DystaScheduler>(world.lut);
        if (name == "Dysta-w/o-sparse") {
            return std::make_unique<DystaScheduler>(
                world.lut, dystaWithoutSparseConfig());
        }
        fatal("unknown policy " + name);
    }

    std::vector<Request>
    randomWorkload(int n, uint64_t seed)
    {
        Rng rng(seed);
        const char* names[] = {"big", "mid", "small"};
        std::vector<Request> reqs;
        double t = 0.0;
        for (int i = 0; i < n; ++i) {
            t += rng.exponential(2.0);
            reqs.push_back(world.request(
                i, names[rng.uniformInt(0, 2)], t, 10.0));
        }
        return reqs;
    }
};

TEST_P(SchedulerInvariants, AllRequestsComplete)
{
    auto policy = make();
    auto reqs = randomWorkload(60, 1);
    SchedulerEngine engine;
    SimResult r = engine.run(reqs, *policy);
    EXPECT_EQ(r.metrics.completed, reqs.size());
    for (const auto& req : reqs) {
        EXPECT_TRUE(req.done());
        EXPECT_GE(req.finishTime, req.arrival);
    }
}

TEST_P(SchedulerInvariants, AnttAtLeastOne)
{
    auto policy = make();
    auto reqs = randomWorkload(60, 2);
    SchedulerEngine engine;
    SimResult r = engine.run(reqs, *policy);
    EXPECT_GE(r.metrics.antt, 1.0);
}

TEST_P(SchedulerInvariants, ViolationRateInUnitInterval)
{
    auto policy = make();
    auto reqs = randomWorkload(60, 3);
    SchedulerEngine engine;
    SimResult r = engine.run(reqs, *policy);
    EXPECT_GE(r.metrics.violationRate, 0.0);
    EXPECT_LE(r.metrics.violationRate, 1.0);
}

TEST_P(SchedulerInvariants, DeterministicAcrossRuns)
{
    auto policy = make();
    auto reqs = randomWorkload(60, 4);
    SchedulerEngine engine;
    double antt1 = engine.run(reqs, *policy).metrics.antt;
    double antt2 = engine.run(reqs, *policy).metrics.antt;
    EXPECT_DOUBLE_EQ(antt1, antt2);
}

TEST_P(SchedulerInvariants, BusyWorkConservation)
{
    // Total busy time equals the sum of isolated times regardless of
    // the policy (the engine never idles with work queued).
    auto policy = make();
    auto reqs = randomWorkload(40, 5);
    // Make them all arrive at t=0 so there is no idle gap.
    for (auto& req : reqs)
        req.arrival = 0.0;
    std::sort(reqs.begin(), reqs.end(),
              [](const Request& a, const Request& b) {
                  return a.id < b.id;
              });
    double isolated_sum = 0.0;
    for (auto& req : reqs) {
        req.deadline = req.arrival + 10.0;
        req.lastRunEnd = 0.0;
        isolated_sum += req.isolated();
    }
    SchedulerEngine engine;
    SimResult r = engine.run(reqs, *policy);
    EXPECT_NEAR(r.metrics.makespan, isolated_sum, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SchedulerInvariants,
    ::testing::Values("FCFS", "SJF", "PREMA", "Planaria", "SDRM3",
                      "Oracle", "Dysta", "Dysta-w/o-sparse"));
