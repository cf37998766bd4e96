/**
 * @file
 * Tests of the dynamic-batching subsystem (src/batch/): spec-grammar
 * parsing, batch formation invariants on SimNode (size cap, fill-
 * window hold, batch-aware step latency, continuous joins at layer
 * boundaries only), the composition policies (fifo / greedy /
 * sparsity-aware), per-node scheduler overrides in fleet specs, the
 * goodput metric, and the determinism contract: batching off keeps
 * every report inert, a batcher capped at one member schedules
 * exactly like an unbatched node, and the batching grid replays
 * bit-identically serial vs parallel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "api/scenario.hh"
#include "batch/batch.hh"
#include "exp/sweep.hh"
#include "obs/telemetry.hh"
#include "sched/fcfs.hh"
#include "sched/sjf.hh"
#include "serve/dispatcher.hh"
#include "sim/core.hh"
#include "sim/node.hh"
#include "test_helpers.hh"
#include "util/rng.hh"
#include "workload/cluster_spec.hh"

using namespace dysta;

namespace {

/** Per-layer latencies chosen so the composition policies disagree
 *  (see CompositionPoliciesRankCandidatesDifferently). */
test::World&
world()
{
    static test::World* w = [] {
        auto* built = new test::World();
        built->addModel("a", {0.2}, {0.5});
        built->addModel("b", {0.3, 0.3}, {0.5, 0.5});
        built->addModel("c", {0.25, 0.25, 0.25, 0.25},
                        {0.5, 0.5, 0.5, 0.5});
        built->addModel("d", {0.8}, {0.5});
        built->addModel("one", {1.0}, {0.5});
        built->addModel("two", {1.0, 1.0}, {0.5, 0.5});
        return built;
    }();
    return *w;
}

/** Shared profiled context for cluster-level tests (AttNN only). */
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

/** What an equivalence run exercised (see expectBatchOfOneEquivalence). */
struct Exercised
{
    size_t preemptions = 0;
    size_t restarts = 0;
};

/**
 * Run the profiled AttNN workload on `nodes` (one `policy` per node)
 * unbatched and under an enabled `batcher:size=1`: finish times,
 * decisions, preemptions, calendar events, execution telemetry and
 * every metric but the batching block must match.
 */
Exercised
expectBatchOfOneEquivalence(const std::vector<NodeProfile>& nodes,
                            const std::string& policy,
                            const std::vector<NodeEvent>& events)
{
    WorkloadConfig wl;
    wl.arrivalRate = 40.0;
    wl.numRequests = 150;
    SimResult runs[2];
    std::vector<Request> reqs[2];
    Telemetry sinks[2];
    for (int batched = 0; batched < 2; ++batched) {
        SimConfig cfg;
        cfg.nodes = nodes;
        cfg.nodeEvents = events;
        cfg.telemetry = &sinks[batched];
        cfg.batching =
            batchConfigFromSpec(batched ? "batcher:size=1" : "");
        reqs[batched] = generateWorkload(wl, ctx().registry);
        LeastOutstandingDispatcher disp;
        runs[batched] = runSimulation(
            cfg, reqs[batched], disp, [&](const NodeProfile&, int) {
                return makeSchedulerByName(policy, ctx());
            });
    }
    const SimResult& off = runs[0];
    const SimResult& one = runs[1];
    EXPECT_EQ(sinks[0].execStarts(), sinks[1].execStarts()) << policy;
    EXPECT_EQ(sinks[0].layerCompletions(), sinks[1].layerCompletions())
        << policy;
    EXPECT_EQ(sinks[0].restarts(), sinks[1].restarts()) << policy;
    EXPECT_EQ(sinks[0].batchesFormed(), 0u) << policy;
    EXPECT_EQ(sinks[1].batchesFormed(), one.decisions) << policy;
    EXPECT_FALSE(off.metrics.batching.active) << policy;
    EXPECT_TRUE(one.metrics.batching.active) << policy;
    EXPECT_EQ(one.metrics.batching.meanOccupancy, 1.0) << policy;
    EXPECT_EQ(one.metrics.batching.joins, 0.0) << policy;
    EXPECT_EQ(off.decisions, one.decisions) << policy;
    EXPECT_EQ(off.preemptions, one.preemptions) << policy;
    EXPECT_EQ(off.eventsProcessed, one.eventsProcessed) << policy;
    EXPECT_EQ(off.perNodeCompleted, one.perNodeCompleted) << policy;
    // Only the size-1 run carries a batching block (checked above);
    // every other field must match the unbatched run bit for bit.
    Metrics off_rest = off.metrics;
    Metrics one_rest = one.metrics;
    off_rest.batching = one_rest.batching = BatchStats{};
    EXPECT_EQ(metricsDifferences(off_rest, one_rest),
              std::vector<std::string>{}) << policy;
    for (size_t i = 0; i < reqs[0].size(); ++i)
        EXPECT_EQ(reqs[0][i].finishTime, reqs[1][i].finishTime)
            << policy << " request " << i;
    return {off.preemptions, sinks[0].restarts()};
}

/** A batching cell over the profiled AttNN workload. */
SweepCell
batchCell(const std::string& batcher)
{
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 120.0;
    cell.workload.arrival.kind = ArrivalKind::Mmpp;
    cell.workload.numRequests = 150;
    cell.clusterMode = true;
    cell.cluster.nodes = fleetFromSpec("sanger:2");
    cell.cluster.dispatcher = "least-outstanding";
    cell.cluster.batcher = batcher;
    return cell;
}

} // namespace

// --- spec grammar -----------------------------------------------------------

TEST(BatchSpecs, EmptySpecDisablesAndFullSpecRoundTrips)
{
    BatchConfig off = batchConfigFromSpec("");
    EXPECT_FALSE(off.enabled);
    EXPECT_EQ(off.str(), "");

    BatchConfig cfg = batchConfigFromSpec(
        "batcher:size=8,delay=2ms,compose=sparsity,overhead=0.1");
    EXPECT_TRUE(cfg.enabled);
    EXPECT_EQ(cfg.maxSize, 8);
    EXPECT_DOUBLE_EQ(cfg.maxDelaySec, 0.002);
    EXPECT_EQ(cfg.compose, BatchCompose::Sparsity);
    EXPECT_DOUBLE_EQ(cfg.overhead, 0.1);
    // str() round-trips through the parser.
    BatchConfig again = batchConfigFromSpec(cfg.str());
    EXPECT_EQ(again.str(), cfg.str());
    EXPECT_EQ(again.maxSize, cfg.maxSize);
    EXPECT_DOUBLE_EQ(again.maxDelaySec, cfg.maxDelaySec);

    // Delay accepts seconds with or without a unit suffix.
    EXPECT_DOUBLE_EQ(
        batchConfigFromSpec("batcher:delay=0.5s").maxDelaySec, 0.5);
    EXPECT_DOUBLE_EQ(
        batchConfigFromSpec("batcher:delay=0.002").maxDelaySec,
        0.002);

    // Omitted knobs keep their defaults (form immediately, fifo).
    BatchConfig min = batchConfigFromSpec("batcher:size=4");
    EXPECT_EQ(min.maxSize, 4);
    EXPECT_DOUBLE_EQ(min.maxDelaySec, 0.0);
    EXPECT_EQ(min.compose, BatchCompose::Fifo);
    EXPECT_DOUBLE_EQ(min.overhead, 0.05);
}

TEST(BatchSpecs, MalformedSpecsAreFatal)
{
    EXPECT_DEATH(batchConfigFromSpec("batcher:size=0"),
                 "size must be >= 1");
    EXPECT_DEATH(batchConfigFromSpec("batcher:overhead=-1"),
                 "overhead must be >= 0");
    EXPECT_DEATH(batchConfigFromSpec("batcher:compose=best"),
                 "unknown policy");
    EXPECT_DEATH(batchConfigFromSpec("batcher:nope=1"),
                 "unknown parameter");
    EXPECT_DEATH(batchConfigFromSpec("batcher:delay=abc"),
                 "non-negative duration");
    EXPECT_DEATH(batchConfigFromSpec("scheduler:size=2"),
                 "expected batcher:");
}

// --- formation invariants ---------------------------------------------------

TEST(BatchFormation, SizeCapAndStepLatencyWithOverhead)
{
    SimNode node(0, referenceNodeProfile(),
                 std::make_unique<FcfsScheduler>());
    BatchConfig cfg = batchConfigFromSpec(
        "batcher:size=8,compose=fifo,overhead=0.05");
    node.setBatching(cfg);

    std::vector<Request> reqs;
    reqs.reserve(10);
    for (int i = 0; i < 10; ++i) {
        reqs.push_back(world().request(i, "one", 0.0));
        node.enqueue(&reqs.back(), 0.0);
    }

    double end = node.beginStep(0.0);
    // The batch fills to the cap, never past it.
    EXPECT_EQ(node.activeBatch().size(), 8u);
    // step = max member latency * (1 + overhead * (k - 1)).
    EXPECT_DOUBLE_EQ(node.batchStepLatency(), 1.0 * (1.0 + 0.05 * 7));
    EXPECT_DOUBLE_EQ(end, 1.35);

    std::vector<Request*> done = node.completeStep();
    // Every member advanced (and here finished) its own layer, and
    // executed time is the member's own latency, not the step's.
    ASSERT_EQ(done.size(), 8u);
    for (const Request* r : done) {
        EXPECT_EQ(r->nextLayer, 1u);
        EXPECT_DOUBLE_EQ(r->executedTime, 1.0);
    }
    EXPECT_EQ(node.outstanding(), 2u);
    EXPECT_EQ(node.batchCounters().formed, 1u);
    EXPECT_EQ(node.batchCounters().steps, 1u);
    EXPECT_EQ(node.batchCounters().memberSteps, 8u);
}

TEST(BatchFormation, HoldWaitsForTheFillWindowOrTheCap)
{
    SimNode node(0, referenceNodeProfile(),
                 std::make_unique<FcfsScheduler>());
    node.setBatching(batchConfigFromSpec("batcher:size=4,delay=10ms"));

    std::vector<Request> reqs;
    reqs.reserve(4);
    reqs.push_back(world().request(0, "one", 0.0));
    node.enqueue(&reqs.back(), 0.0);
    reqs.push_back(world().request(1, "one", 0.004));
    node.enqueue(&reqs.back(), 0.004);

    // Under-full and inside the window: hold until the *oldest*
    // waiter has aged out.
    double release = -1.0;
    EXPECT_TRUE(node.batchShouldHold(0.005, &release));
    EXPECT_DOUBLE_EQ(release, 0.010);
    // Window expired: form now.
    EXPECT_FALSE(node.batchShouldHold(0.010, &release));

    // A full batch never holds, regardless of age.
    reqs.push_back(world().request(2, "one", 0.005));
    node.enqueue(&reqs.back(), 0.005);
    reqs.push_back(world().request(3, "one", 0.005));
    node.enqueue(&reqs.back(), 0.005);
    EXPECT_FALSE(node.batchShouldHold(0.006, &release));
}

TEST(BatchFormation, ZeroDelayOrDisabledNeverHolds)
{
    SimNode node(0, referenceNodeProfile(),
                 std::make_unique<FcfsScheduler>());
    std::vector<Request> reqs;
    reqs.reserve(1);
    reqs.push_back(world().request(0, "one", 0.0));
    node.enqueue(&reqs.back(), 0.0);

    double release = -1.0;
    // Batching disabled: the hold rule is inert.
    EXPECT_FALSE(node.batchShouldHold(0.0, &release));
    // delay=0 forms immediately even under-full.
    node.setBatching(batchConfigFromSpec("batcher:size=8"));
    EXPECT_FALSE(node.batchShouldHold(0.0, &release));
}

TEST(BatchFormation, ContinuousJoinOnlyAtLayerBoundaries)
{
    NodeProfile profile = referenceNodeProfile();
    profile.layerBlockSize = 2;
    SimNode node(0, profile, std::make_unique<FcfsScheduler>());
    node.setBatching(
        batchConfigFromSpec("batcher:size=2,overhead=0"));

    std::vector<Request> reqs;
    reqs.reserve(2);
    reqs.push_back(world().request(0, "two", 0.0));
    Request* first = &reqs.back();
    node.enqueue(first, 0.0);

    double end = node.beginStep(0.0);
    EXPECT_EQ(node.activeBatch().size(), 1u);
    EXPECT_DOUBLE_EQ(end, 1.0);

    // A request arriving mid-step waits for the layer boundary; it
    // cannot enter the in-flight step.
    reqs.push_back(world().request(1, "two", 0.3));
    Request* late = &reqs.back();
    node.enqueue(late, 0.3);
    EXPECT_FALSE(node.inActiveBatch(late));

    EXPECT_TRUE(node.completeStep().empty());
    ASSERT_TRUE(node.blockContinues());
    end = node.continueStep(1.0);
    EXPECT_DOUBLE_EQ(end, 2.0);
    EXPECT_EQ(node.activeBatch().size(), 2u);
    EXPECT_TRUE(node.inActiveBatch(late));
    EXPECT_EQ(node.batchCounters().joins, 1u);

    // Each member advances its *own* next layer per step.
    std::vector<Request*> done = node.completeStep();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], first);
    EXPECT_EQ(first->nextLayer, 2u);
    EXPECT_EQ(late->nextLayer, 1u);
}

TEST(BatchFormation, CompositionPoliciesRankCandidatesDifferently)
{
    // Anchor "a" has per-layer time 0.2; the candidates "b" / "c" /
    // "d" are picked apart by policy: fifo takes queue order ("d"),
    // greedy the shortest remaining ("b", 0.6s), sparsity-aware the
    // closest per-layer time to the anchor ("c", 0.25 vs 0.2).
    struct Case
    {
        const char* compose;
        const char* pick;
    };
    for (const Case& c : {Case{"fifo", "d"}, Case{"greedy", "b"},
                          Case{"sparsity", "c"}}) {
        SimNode node(0, referenceNodeProfile(),
                     std::make_unique<SjfScheduler>(world().lut));
        node.setBatching(batchConfigFromSpec(
            std::string("batcher:size=2,compose=") + c.compose));

        std::vector<Request> reqs;
        reqs.reserve(4);
        int id = 0;
        for (const char* model : {"d", "c", "b", "a"}) {
            reqs.push_back(world().request(id++, model, 0.0));
            node.enqueue(&reqs.back(), 0.0);
        }

        node.beginStep(0.0);
        ASSERT_EQ(node.activeBatch().size(), 2u) << c.compose;
        // SJF anchors on the shortest job ("a") in every variant.
        EXPECT_EQ(world().name(*node.activeBatch()[0]), "a")
            << c.compose;
        EXPECT_EQ(world().name(*node.activeBatch()[1]), c.pick)
            << c.compose;
    }
}

TEST(BatchFormation, EstimatorLessPoliciesFallBackToQueueOrder)
{
    // FCFS has no estimator: greedy and sparsity degrade to fifo
    // instead of crashing or reordering on garbage.
    SimNode node(0, referenceNodeProfile(),
                 std::make_unique<FcfsScheduler>());
    node.setBatching(
        batchConfigFromSpec("batcher:size=3,compose=sparsity"));

    std::vector<Request> reqs;
    reqs.reserve(3);
    int id = 0;
    for (const char* model : {"d", "c", "b"}) {
        reqs.push_back(world().request(id++, model, 0.0));
        node.enqueue(&reqs.back(), 0.0);
    }
    node.beginStep(0.0);
    ASSERT_EQ(node.activeBatch().size(), 3u);
    EXPECT_EQ(world().name(*node.activeBatch()[0]), "d");
    EXPECT_EQ(world().name(*node.activeBatch()[1]), "c");
    EXPECT_EQ(world().name(*node.activeBatch()[2]), "b");
}

namespace {

/**
 * Estimator reading a fixed remaining time per request id, counting
 * every remaining() query into `calls`.
 */
class CountingEstimator : public LatencyEstimator
{
  public:
    CountingEstimator(std::vector<double> remaining_by_id, size_t& calls)
        : table(std::move(remaining_by_id)), counter(&calls)
    {
    }

    std::string name() const override { return "counting"; }

    double
    remaining(const Request& req) const override
    {
        ++*counter;
        return table.at(static_cast<size_t>(req.id));
    }

    double
    isolated(const Request& req) const override
    {
        return table.at(static_cast<size_t>(req.id));
    }

  private:
    std::vector<double> table;
    size_t* counter;
};

/** Anchors every batch on the queue head; exposes its estimator. */
class HeadOfQueueScheduler : public Scheduler
{
  public:
    explicit HeadOfQueueScheduler(std::unique_ptr<LatencyEstimator> e)
        : Scheduler(std::move(e))
    {
    }

    std::string name() const override { return "head-of-queue"; }

    size_t
    selectNext(const std::vector<const Request*>& ready,
               double now) override
    {
        (void)ready;
        (void)now;
        return 0;
    }
};

/** A node composing with `compose` up to `size` members. */
SimNode
countingNode(const std::vector<double>& remaining_by_id, size_t& calls,
             const std::string& compose, int size)
{
    SimNode node(0, referenceNodeProfile(),
                 std::make_unique<HeadOfQueueScheduler>(
                     std::make_unique<CountingEstimator>(remaining_by_id,
                                                         calls)));
    node.setBatching(batchConfigFromSpec(
        "batcher:size=" + std::to_string(size) + ",compose=" + compose));
    return node;
}

} // namespace

TEST(BatchComposition, RanksEachCandidateOnce)
{
    // One compose over n candidates: n estimator queries, plus one
    // for the anchor's per-layer pivot under sparsity composition —
    // not two per comparison of the sort.
    const size_t n = 9;
    std::vector<double> remaining_by_id;
    for (size_t i = 0; i <= n; ++i)
        remaining_by_id.push_back(1.0 + static_cast<double>((i * 7) % 5));
    for (const char* compose : {"greedy", "sparsity"}) {
        size_t calls = 0;
        SimNode node =
            countingNode(remaining_by_id, calls, compose, /*size=*/4);
        std::vector<Request> reqs;
        reqs.reserve(n + 1);
        for (size_t i = 0; i <= n; ++i) {
            reqs.push_back(
                world().request(static_cast<int>(i), "c", 0.0));
            node.enqueue(&reqs.back(), 0.0);
        }
        calls = 0;
        node.beginStep(0.0);
        ASSERT_EQ(node.activeBatch().size(), 4u) << compose;
        size_t pivot = std::string(compose) == "sparsity" ? 1 : 0;
        EXPECT_EQ(calls, n + pivot) << compose;
    }
}

TEST(BatchComposition, OrderMatchesAStableComparatorSort)
{
    // Randomized ready sets over few distinct remaining times and
    // layer counts, so rank keys tie exactly (also across models in
    // per-layer terms): the composed order must equal a stable sort
    // of the queue with the comparator evaluated per comparison.
    const char* models[] = {"a", "b", "c", "d", "two"};
    const double levels[] = {0.5, 1.0, 2.0, 4.0};
    Rng rng(2024);
    size_t tied_sets = 0;
    for (int trial = 0; trial < 150; ++trial) {
        auto count = static_cast<size_t>(rng.uniformInt(2, 40));
        std::vector<double> remaining_by_id;
        std::vector<const char*> model_of;
        for (size_t i = 0; i < count; ++i) {
            remaining_by_id.push_back(levels[rng.uniformInt(0, 3)]);
            model_of.push_back(models[rng.uniformInt(0, 4)]);
        }
        auto remaining = [&](const Request* r) {
            return remaining_by_id.at(static_cast<size_t>(r->id));
        };
        auto perLayer = [&](const Request* r) {
            size_t left = r->layerCount() - r->nextLayer;
            return remaining(r) /
                   static_cast<double>(left == 0 ? 1 : left);
        };

        for (const char* compose : {"greedy", "sparsity"}) {
            size_t calls = 0;
            SimNode node = countingNode(remaining_by_id, calls, compose,
                                        static_cast<int>(count));
            std::vector<Request> reqs;
            reqs.reserve(count);
            for (size_t i = 0; i < count; ++i) {
                reqs.push_back(world().request(static_cast<int>(i),
                                               model_of[i], 0.0));
                node.enqueue(&reqs.back(), 0.0);
            }
            node.beginStep(0.0);

            std::vector<const Request*> expect;
            for (size_t i = 1; i < count; ++i)
                expect.push_back(&reqs[i]);
            std::vector<double> keys;
            if (std::string(compose) == "greedy") {
                std::stable_sort(expect.begin(), expect.end(),
                                 [&](const Request* a, const Request* b) {
                                     return remaining(a) < remaining(b);
                                 });
                for (const Request* r : expect)
                    keys.push_back(remaining(r));
            } else {
                double pivot = perLayer(&reqs[0]);
                auto gap = [&](const Request* r) {
                    return std::abs(perLayer(r) - pivot);
                };
                std::stable_sort(expect.begin(), expect.end(),
                                 [&](const Request* a, const Request* b) {
                                     return gap(a) < gap(b);
                                 });
                for (const Request* r : expect)
                    keys.push_back(gap(r));
            }
            if (std::adjacent_find(keys.begin(), keys.end()) != keys.end())
                ++tied_sets;

            const std::vector<Request*>& batch = node.activeBatch();
            ASSERT_EQ(batch.size(), count) << compose;
            EXPECT_EQ(batch[0], &reqs[0]) << compose;
            for (size_t i = 1; i < count; ++i)
                ASSERT_EQ(batch[i], expect[i - 1])
                    << compose << " trial " << trial << " position " << i;
        }
    }
    // The property is only interesting on sets with exact ties.
    EXPECT_GT(tied_sets, 100u);
}

// --- fleet grammar ----------------------------------------------------------

TEST(FleetSpecs, PerNodeSchedulerSuffixParses)
{
    std::vector<NodeProfile> fleet =
        fleetFromSpec("sanger:2=dysta,eyeriss-xl:1=sjf@rackB");
    ASSERT_EQ(fleet.size(), 3u);
    EXPECT_EQ(fleet[0].scheduler, "dysta");
    EXPECT_EQ(fleet[1].scheduler, "dysta");
    EXPECT_EQ(fleet[0].domain, "");
    EXPECT_EQ(fleet[2].scheduler, "sjf");
    EXPECT_EQ(fleet[2].domain, "rackB");
    // No suffix inherits the cluster-wide default.
    EXPECT_EQ(fleetFromSpec("sanger:2")[0].scheduler, "");

    EXPECT_DEATH(fleetFromSpec("sanger:2="), "empty scheduler");
}

TEST(FleetSpecs, PerNodeSchedulerOverridesTheClusterDefault)
{
    // Pinning fcfs on every node must reproduce the run whose
    // cluster-wide default is fcfs, bit for bit, whatever the
    // (overridden) default says.
    SweepCell pinned = batchCell("");
    pinned.cluster.nodes = fleetFromSpec("sanger:2=fcfs");
    pinned.cluster.nodeScheduler = "dysta";
    SweepCell uniform = batchCell("");
    uniform.cluster.nodeScheduler = "fcfs";

    SweepCellResult a = runSweepCell(ctx(), pinned);
    SweepCellResult b = runSweepCell(ctx(), uniform);
    EXPECT_EQ(metricsDifferences(a.metrics, b.metrics),
              std::vector<std::string>{});
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.preemptions, b.preemptions);

    // A mixed-policy fleet serves to completion.
    SweepCell mixed = batchCell("");
    mixed.cluster.nodes = fleetFromSpec("sanger:1=fcfs,sanger:1=sjf");
    SweepCellResult m = runSweepCell(ctx(), mixed);
    EXPECT_GT(m.metrics.completed, 0u);
}

// --- goodput ----------------------------------------------------------------

TEST(Goodput, TracksThroughputDiscountedByViolations)
{
    SweepCellResult r = runSweepCell(ctx(), batchCell(""));
    const Metrics& m = r.metrics;
    EXPECT_GT(m.goodput, 0.0);
    EXPECT_LE(m.goodput, m.throughput);
    // goodput = (completed - violations) / makespan, i.e. the
    // throughput with deadline-missing completions discounted.
    EXPECT_NEAR(m.goodput, m.throughput * (1.0 - m.violationRate),
                1e-9);
}

TEST(Goodput, AveragesAcrossSeedReplicasLikeEveryOtherMetric)
{
    Metrics a;
    a.goodput = 1.0;
    a.batching.active = true;
    a.batching.formed = 10.0;
    a.batching.meanOccupancy = 2.0;
    Metrics b;
    b.goodput = 3.0;
    b.batching.active = true;
    b.batching.formed = 20.0;
    b.batching.meanOccupancy = 4.0;
    Metrics avg = averageMetrics({a, b});
    EXPECT_DOUBLE_EQ(avg.goodput, 2.0);
    EXPECT_TRUE(avg.batching.active);
    EXPECT_DOUBLE_EQ(avg.batching.formed, 15.0);
    EXPECT_DOUBLE_EQ(avg.batching.meanOccupancy, 3.0);
}

// --- scenario plumbing ------------------------------------------------------

TEST(BatchScenario, BatcherAxisValidatesAndRequiresAFleet)
{
    ScenarioSpec spec = builtinScenario("batching");
    ASSERT_EQ(spec.batchers.size(), 4u);
    EXPECT_EQ(spec.batchers[0], "none");
    validateScenario(spec); // must not fatal
    // parse -> serialize -> parse is the identity for the new key.
    ScenarioSpec reparsed = parseScenario(serializeScenario(spec));
    EXPECT_EQ(serializeScenario(reparsed), serializeScenario(spec));

    ScenarioSpec single = spec;
    single.fleets.clear();
    single.dispatchers.clear();
    EXPECT_DEATH(validateScenario(single),
                 "'batcher' requires a 'fleet'");

    ScenarioSpec bad = spec;
    bad.batchers = {"batcher:compose=best"};
    EXPECT_DEATH(validateScenario(bad), "unknown policy");
}

// --- determinism ------------------------------------------------------------

TEST(BatchDeterminism, SameSeedBatchRunsAreBitIdentical)
{
    SweepCell cell =
        batchCell("batcher:size=8,delay=2ms,compose=sparsity");
    SweepCellResult a = runSweepCell(ctx(), cell);
    SweepCellResult b = runSweepCell(ctx(), cell);
    EXPECT_EQ(metricsDifferences(a.metrics, b.metrics),
              std::vector<std::string>{});
    EXPECT_EQ(a.decisions, b.decisions);
    // Batching actually bit: batches formed with real occupancy.
    EXPECT_TRUE(a.metrics.batching.active);
    EXPECT_GT(a.metrics.batching.formed, 0.0);
    EXPECT_GT(a.metrics.batching.meanOccupancy, 1.0);
}

TEST(BatchDeterminism, BatchingOffKeepsReportsInert)
{
    // No batcher spec: the stats must stay inactive and zero, so
    // batching-off reports are byte-identical to builds without the
    // subsystem (the sdysta --diff CI gate relies on this).
    SweepCell cell = batchCell("");
    Telemetry sink;
    cell.telemetry = &sink;
    SweepCellResult r = runSweepCell(ctx(), cell);
    EXPECT_FALSE(r.metrics.batching.active);
    EXPECT_EQ(r.metrics.batching.formed, 0.0);
    EXPECT_EQ(r.metrics.batching.joins, 0.0);
    EXPECT_EQ(r.metrics.batching.steps, 0.0);
    EXPECT_EQ(r.metrics.batching.meanOccupancy, 0.0);
    // Its batches of one emit no batch telemetry either.
    EXPECT_GT(sink.layerCompletions(), 0u);
    EXPECT_EQ(sink.batchesFormed(), 0u);
    EXPECT_EQ(sink.batchJoins(), 0u);
}

TEST(BatchDeterminism, BatchOfOneMatchesTheUnbatchedRun)
{
    // An unbatched node runs batches of one, so an enabled batcher
    // capped at one member with no fill window must schedule exactly
    // like it. Blocks of two layers exercise block continuation.
    NodeProfile node = referenceNodeProfile("node0");
    node.layerBlockSize = 2;
    size_t preemptions = 0;
    for (const char* policy : {"FCFS", "SJF", "PREMA", "Dysta"})
        preemptions +=
            expectBatchOfOneEquivalence({node}, policy, {}).preemptions;
    // The preemptive policies did preempt, so that path was compared.
    EXPECT_GT(preemptions, 0u);

    // Two nodes behind least-outstanding, one failing mid-run (its
    // started work restarts on the other) and recovering.
    NodeProfile other = referenceNodeProfile("node1");
    other.layerBlockSize = 2;
    Exercised fleet = expectBatchOfOneEquivalence(
        {node, other}, "Dysta",
        {{1.0, 1, NodeEventKind::Fail}, {2.0, 1, NodeEventKind::Recover}});
    EXPECT_GT(fleet.restarts, 0u);
}

TEST(BatchDeterminism, BatchGridBitIdenticalAcrossJobs)
{
    // The batching.scn axis shape: an off slice plus the three
    // composition policies at matched knobs, serial vs 4 jobs.
    std::vector<SweepCell> cells;
    cells.push_back(batchCell(""));
    cells.push_back(batchCell("batcher:size=8,delay=2ms,compose=fifo"));
    cells.push_back(
        batchCell("batcher:size=8,delay=2ms,compose=greedy"));
    cells.push_back(
        batchCell("batcher:size=8,delay=2ms,compose=sparsity"));
    SweepRunner serial(ctx(), 1);
    SweepRunner parallel(ctx(), 4);
    std::vector<SweepCellResult> a = serial.run(cells);
    std::vector<SweepCellResult> b = parallel.run(cells);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(metricsDifferences(a[i].metrics, b[i].metrics),
                  std::vector<std::string>{}) << i;
    }
    // The off slice reports no batching; the batched slices do.
    EXPECT_FALSE(a[0].metrics.batching.active);
    for (size_t i = 1; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].metrics.batching.active) << i;
        EXPECT_GT(a[i].metrics.batching.formed, 0.0) << i;
    }
}
