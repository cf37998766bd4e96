/**
 * @file
 * Unit tests for metric computation edge cases: empty and singleton
 * request sets, all-violated SLOs, zero-makespan guards, and the
 * completed-subset variant used by cluster runs with load shedding.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sched/metrics.hh"
#include "test_helpers.hh"

using namespace dysta;

namespace {

/** A finished request with the given timing. */
Request
finished(test::World& world, int id, double arrival, double finish,
         double slo_mult = 10.0)
{
    Request req = world.request(id, "m", arrival, slo_mult);
    req.finishTime = finish;
    return req;
}

test::World&
world()
{
    static test::World* w = [] {
        auto* built = new test::World();
        built->addModel("m", {0.5, 0.5}, {0.5, 0.5});
        return built;
    }();
    return *w;
}

} // namespace

TEST(Metrics, EmptyRequestSetYieldsZeroes)
{
    Metrics m = computeMetrics({});
    EXPECT_EQ(m.completed, 0u);
    EXPECT_EQ(m.shed, 0u);
    EXPECT_DOUBLE_EQ(m.antt, 0.0);
    EXPECT_DOUBLE_EQ(m.violationRate, 0.0);
    EXPECT_DOUBLE_EQ(m.throughput, 0.0);
    EXPECT_DOUBLE_EQ(m.p99Turnaround, 0.0);
    EXPECT_DOUBLE_EQ(m.shedRate(), 0.0);
}

TEST(Metrics, SingleRequest)
{
    // Isolated latency 1.0; arrival 0, finish 2 -> turnaround 2.
    std::vector<Request> reqs = {finished(world(), 0, 0.0, 2.0)};
    Metrics m = computeMetrics(reqs);
    EXPECT_EQ(m.completed, 1u);
    EXPECT_NEAR(m.antt, 2.0, 1e-12);
    // p99 over one sample is that sample.
    EXPECT_NEAR(m.p99Turnaround, 2.0, 1e-12);
    EXPECT_NEAR(m.makespan, 2.0, 1e-12);
    EXPECT_NEAR(m.throughput, 0.5, 1e-12);
    EXPECT_DOUBLE_EQ(m.violationRate, 0.0);
}

TEST(Metrics, ZeroMakespanDoesNotDivide)
{
    // Arrival and finish coincide: throughput must stay finite (0).
    std::vector<Request> reqs = {finished(world(), 0, 1.0, 1.0)};
    Metrics m = computeMetrics(reqs);
    EXPECT_DOUBLE_EQ(m.makespan, 0.0);
    EXPECT_DOUBLE_EQ(m.throughput, 0.0);
}

TEST(Metrics, AllViolatedSlos)
{
    // SLO multiplier 2 -> deadline = arrival + 2; finish far past it.
    std::vector<Request> reqs = {
        finished(world(), 0, 0.0, 10.0, 2.0),
        finished(world(), 1, 1.0, 12.0, 2.0),
        finished(world(), 2, 2.0, 14.0, 2.0),
    };
    Metrics m = computeMetrics(reqs);
    EXPECT_DOUBLE_EQ(m.violationRate, 1.0);
    EXPECT_EQ(m.completed, 3u);
}

TEST(Metrics, UnfinishedRequestPanics)
{
    std::vector<Request> reqs = {world().request(0, "m", 0.0)};
    ASSERT_LT(reqs[0].finishTime, 0.0);
    EXPECT_DEATH(computeMetrics(reqs), "unfinished request");
}

TEST(Metrics, CompletedVariantSkipsShedRequests)
{
    std::vector<Request> reqs = {
        finished(world(), 0, 0.0, 2.0),
        world().request(1, "m", 0.5),
        finished(world(), 2, 1.0, 3.0),
    };
    reqs[1].shed = true;
    Metrics m = computeMetricsCompleted(reqs);
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.shed, 1u);
    EXPECT_NEAR(m.shedRate(), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(m.antt, 2.0, 1e-12);
}

TEST(Metrics, ShedArrivalsDoNotStretchBusyInterval)
{
    // A shed request arriving long before any served one must not
    // deflate throughput: it never occupied the system.
    std::vector<Request> reqs = {
        world().request(0, "m", 0.0),
        finished(world(), 1, 100.0, 101.0),
    };
    reqs[0].shed = true;
    Metrics m = computeMetricsCompleted(reqs);
    EXPECT_NEAR(m.makespan, 1.0, 1e-12);
    EXPECT_NEAR(m.throughput, 1.0, 1e-12);
}

TEST(Metrics, CompletedVariantAllShed)
{
    std::vector<Request> reqs = {world().request(0, "m", 0.0),
                                 world().request(1, "m", 1.0)};
    reqs[0].shed = true;
    reqs[1].shed = true;
    Metrics m = computeMetricsCompleted(reqs);
    EXPECT_EQ(m.completed, 0u);
    EXPECT_EQ(m.shed, 2u);
    EXPECT_DOUBLE_EQ(m.shedRate(), 1.0);
    EXPECT_DOUBLE_EQ(m.antt, 0.0);
    EXPECT_DOUBLE_EQ(m.throughput, 0.0);
}

TEST(Metrics, SloMissRateCountsShedAsMisses)
{
    // Hand-built set: 4 completed (1 violated, SLO mult 2 ->
    // deadline = arrival + 2) and 2 shed. The regression this pins:
    // violationRate looks only at completed requests (1/4), so an
    // aggressive admission controller could shed its way to a
    // better-looking number; sloMissRate charges the sheds too:
    // (violations + shed) / (completed + shed) = (1 + 2) / (4 + 2).
    std::vector<Request> reqs = {
        finished(world(), 0, 0.0, 1.5, 2.0),  // meets SLO
        finished(world(), 1, 0.0, 1.0, 2.0),  // meets SLO
        finished(world(), 2, 0.0, 1.8, 2.0),  // meets SLO
        finished(world(), 3, 0.0, 9.0, 2.0),  // violated
        world().request(4, "m", 0.5, 2.0),
        world().request(5, "m", 0.6, 2.0),
    };
    reqs[4].shed = true;
    reqs[5].shed = true;
    Metrics m = computeMetricsCompleted(reqs);
    EXPECT_EQ(m.completed, 4u);
    EXPECT_EQ(m.shed, 2u);
    EXPECT_DOUBLE_EQ(m.violationRate, 1.0 / 4.0);
    EXPECT_DOUBLE_EQ(m.sloMissRate, 3.0 / 6.0);
    // The invariant the cluster benches rely on: with sheds present
    // the SLO-miss rate can never undercut the violation rate.
    EXPECT_GE(m.sloMissRate, m.violationRate);
}

TEST(Metrics, SloMissRateEqualsViolationRateWithoutSheds)
{
    std::vector<Request> reqs = {
        finished(world(), 0, 0.0, 1.0, 2.0),
        finished(world(), 1, 0.0, 9.0, 2.0),
    };
    Metrics m = computeMetrics(reqs);
    EXPECT_DOUBLE_EQ(m.violationRate, 0.5);
    EXPECT_DOUBLE_EQ(m.sloMissRate, m.violationRate);
}

TEST(Metrics, SloMissRateIsOneWhenEverythingShed)
{
    std::vector<Request> reqs = {world().request(0, "m", 0.0)};
    reqs[0].shed = true;
    Metrics m = computeMetricsCompleted(reqs);
    EXPECT_EQ(m.completed, 0u);
    EXPECT_DOUBLE_EQ(m.sloMissRate, 1.0);
}

TEST(Metrics, CompletedVariantStillPanicsOnUnfinished)
{
    // Unfinished but *not* shed is an engine bug, even here.
    std::vector<Request> reqs = {world().request(0, "m", 0.0)};
    EXPECT_DEATH(computeMetricsCompleted(reqs), "unfinished request");
}

TEST(Metrics, RepeatedIdsSumInVectorOrder)
{
    // A replayed vector may repeat ids (e.g. a hand-built request
    // set). Records of one id must be summed in vector order, so the
    // floating-point sums are bit-equal to that order's.
    std::vector<Request> reqs;
    for (int i = 0; i < 200; ++i) {
        double turnaround = std::exp2(static_cast<double>((i * 37) % 41)) +
                            static_cast<double>(i) / 7.0;
        reqs.push_back(finished(world(), (i * 13) % 5, 0.0, turnaround));
    }

    std::vector<const Request*> ordered;
    for (int id = 0; id < 5; ++id) {
        for (const Request& req : reqs) {
            if (req.id == id)
                ordered.push_back(&req);
        }
    }
    double antt = 0.0;
    double stp = 0.0;
    for (const Request* req : ordered) {
        antt += req->normalizedTurnaround();
        stp += 1.0 / req->normalizedTurnaround();
    }
    antt /= static_cast<double>(ordered.size());

    // Reversed within each id, the sum differs: the order is visible.
    double reversed = 0.0;
    for (size_t i = 0; i < ordered.size(); i += 40) {
        for (size_t j = i + 40; j-- > i;)
            reversed += ordered[j]->normalizedTurnaround();
    }
    ASSERT_NE(reversed / static_cast<double>(ordered.size()), antt);

    Metrics m = computeMetrics(reqs);
    EXPECT_EQ(m.completed, reqs.size());
    EXPECT_EQ(m.antt, antt);
    EXPECT_EQ(m.stp, stp);
}
