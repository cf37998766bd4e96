/**
 * @file
 * Tests for the heap-backed ready queues: IndexedMinHeap unit
 * behaviour, and the core property that every policy's engine-facing
 * `pickNext` (heap peek or dense cached scan) makes exactly the same
 * decision as the legacy linear-scan `selectNext` on randomized
 * workloads — checked at every single decision of full simulation
 * runs, single-node and multi-node.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/dysta.hh"
#include "sched/engine.hh"
#include "sched/fcfs.hh"
#include "sched/oracle.hh"
#include "sched/planaria.hh"
#include "sched/prema.hh"
#include "sched/sdrm3.hh"
#include "sched/sjf.hh"
#include "serve/dispatcher.hh"
#include "sim/core.hh"
#include "sim/ready_queue.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

using namespace dysta;
using dysta::test::World;

// --- IndexedMinHeap --------------------------------------------------------

namespace {

Request
dummyRequest(int id)
{
    Request req;
    req.id = id;
    req.slot = id;
    return req;
}

} // namespace

TEST(IndexedMinHeap, OrdersByPrimaryThenTiebreak)
{
    std::vector<Request> reqs;
    for (int i = 0; i < 4; ++i)
        reqs.push_back(dummyRequest(i));

    IndexedMinHeap h;
    h.push(&reqs[0], {2.0, 0});
    h.push(&reqs[1], {1.0, 5});
    h.push(&reqs[2], {1.0, 3});
    h.push(&reqs[3], {3.0, 1});

    EXPECT_EQ(h.size(), 4u);
    EXPECT_EQ(h.top()->id, 2); // smallest primary, smaller tiebreak
    h.erase(reqs[2]);
    EXPECT_EQ(h.top()->id, 1);
    h.erase(reqs[1]);
    EXPECT_EQ(h.top()->id, 0);
}

TEST(IndexedMinHeap, UpdatePrimaryRekeysBothDirections)
{
    std::vector<Request> reqs;
    for (int i = 0; i < 3; ++i)
        reqs.push_back(dummyRequest(i));

    IndexedMinHeap h;
    h.push(&reqs[0], {1.0, 0});
    h.push(&reqs[1], {2.0, 1});
    h.push(&reqs[2], {3.0, 2});

    h.updatePrimary(reqs[2], 0.5); // sift up
    EXPECT_EQ(h.top()->id, 2);
    h.updatePrimary(reqs[2], 10.0); // sift down
    EXPECT_EQ(h.top()->id, 0);
    h.updatePrimary(reqs[0], 5.0);
    EXPECT_EQ(h.top()->id, 1);
}

TEST(IndexedMinHeap, EraseMiddleKeepsHeapConsistent)
{
    std::vector<Request> reqs;
    for (int i = 0; i < 32; ++i)
        reqs.push_back(dummyRequest(i));

    Rng rng(11);
    IndexedMinHeap h;
    std::vector<std::pair<double, int>> keys;
    for (int i = 0; i < 32; ++i) {
        double k = rng.uniform();
        h.push(&reqs[i], {k, i});
        keys.push_back({k, i});
    }
    std::sort(keys.begin(), keys.end());
    // Remove every other element by id, then drain: remaining order
    // must still be globally sorted.
    std::vector<std::pair<double, int>> expect;
    for (const auto& [k, id] : keys) {
        if (id % 2 == 0)
            h.erase(reqs[id]);
        else
            expect.push_back({k, id});
    }
    for (const auto& [k, id] : expect) {
        EXPECT_EQ(h.top()->id, id);
        EXPECT_DOUBLE_EQ(h.topKey().primary, k);
        h.erase(reqs[id]);
    }
    EXPECT_TRUE(h.empty());
}

TEST(IndexedMinHeap, DuplicatePushPanics)
{
    Request req = dummyRequest(1);
    IndexedMinHeap h;
    h.push(&req, {1.0, 0});
    EXPECT_DEATH(h.push(&req, {2.0, 1}), "duplicate");
}

// --- pickNext == selectNext property ---------------------------------------

namespace {

/**
 * Wrapper that runs both selection paths at every engine decision
 * and asserts they agree; forwards all lifecycle hooks.
 */
class CheckedScheduler : public Scheduler
{
  public:
    explicit CheckedScheduler(std::unique_ptr<Scheduler> wrapped)
        : inner(std::move(wrapped))
    {
    }

    std::string name() const override { return inner->name(); }
    void reset() override { inner->reset(); }

    void
    onArrival(const Request& req, double now) override
    {
        inner->onArrival(req, now);
    }

    void
    onLayerComplete(const Request& req, double now,
                    double monitored_sparsity) override
    {
        inner->onLayerComplete(req, now, monitored_sparsity);
    }

    void
    onComplete(const Request& req, double now) override
    {
        inner->onComplete(req, now);
    }

    size_t
    selectNext(const std::vector<const Request*>& ready,
               double now) override
    {
        return inner->selectNext(ready, now);
    }

    Request*
    pickNext(const std::vector<Request*>& ready, double now) override
    {
        Request* fast = inner->pickNext(ready, now);
        std::vector<const Request*> view(ready.begin(), ready.end());
        size_t reference = inner->selectNext(view, now);
        EXPECT_LT(reference, ready.size());
        EXPECT_EQ(fast, ready[reference])
            << inner->name() << " diverged at t=" << now
            << ": pickNext chose request " << fast->id
            << ", selectNext chose request " << ready[reference]->id;
        return fast;
    }

  private:
    std::unique_ptr<Scheduler> inner;
};

/** A random world: models with noisy per-layer latencies/sparsities. */
World
randomWorld(Rng& rng)
{
    World w;
    int num_models = static_cast<int>(rng.uniformInt(2, 5));
    for (int m = 0; m < num_models; ++m) {
        size_t layers = static_cast<size_t>(rng.uniformInt(1, 8));
        std::vector<SampleTrace> samples;
        for (int s = 0; s < 4; ++s) {
            std::vector<double> lat, sp;
            for (size_t l = 0; l < layers; ++l) {
                lat.push_back(rng.uniform(0.01, 0.4));
                sp.push_back(rng.uniform(0.1, 0.9));
            }
            samples.push_back(test::trace(lat, sp));
        }
        w.addModelSamples("m" + std::to_string(m),
                          std::move(samples));
    }
    return w;
}

std::vector<Request>
randomRequests(World& w, Rng& rng, int count)
{
    std::vector<Request> reqs;
    double t = 0.0;
    for (int i = 0; i < count; ++i) {
        t += rng.exponential(8.0);
        std::string model =
            "m" + std::to_string(rng.uniformInt(
                      0, static_cast<int64_t>(w.sets.size()) - 1));
        double slo = rng.uniform(2.0, 12.0);
        size_t sample =
            static_cast<size_t>(rng.uniformInt(0, 3));
        reqs.push_back(w.request(i, model, t, slo, sample));
    }
    return reqs;
}

std::unique_ptr<Scheduler>
makePolicy(const std::string& name, const World& w)
{
    if (name == "FCFS")
        return std::make_unique<FcfsScheduler>();
    if (name == "SJF")
        return std::make_unique<SjfScheduler>(w.lut);
    if (name == "PREMA")
        return std::make_unique<PremaScheduler>(w.lut);
    if (name == "Planaria")
        return std::make_unique<PlanariaScheduler>(w.lut);
    if (name == "SDRM3")
        return std::make_unique<Sdrm3Scheduler>(w.lut);
    if (name == "Oracle")
        return std::make_unique<OracleScheduler>();
    if (name == "Dysta")
        return std::make_unique<DystaScheduler>(w.lut);
    if (name == "Dysta-static") {
        return std::make_unique<DystaScheduler>(
            w.lut, dystaWithoutSparseConfig());
    }
    ADD_FAILURE() << "unknown policy " << name;
    return nullptr;
}

const char* const kAllPolicies[] = {"FCFS",     "SJF",    "PREMA",
                                    "Planaria", "SDRM3",  "Oracle",
                                    "Dysta",    "Dysta-static"};

} // namespace

TEST(PickNextProperty, MatchesLinearScanOnRandomSingleNodeRuns)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 7919);
        World w = randomWorld(rng);
        std::vector<Request> base = randomRequests(w, rng, 40);

        for (const char* name : kAllPolicies) {
            std::vector<Request> reqs = base;
            CheckedScheduler checked(makePolicy(name, w));
            SimResult r = runSingleNode(singleNodeSimConfig(), reqs, checked);
            EXPECT_EQ(r.metrics.completed, reqs.size())
                << name << " seed " << seed;
        }
    }
}

TEST(PickNextProperty, MatchesLinearScanUnderBlocksAndOverhead)
{
    Rng rng(424242);
    World w = randomWorld(rng);
    std::vector<Request> base = randomRequests(w, rng, 30);

    EngineConfig cfg;
    cfg.layerBlockSize = 3;
    cfg.decisionOverheadSec = 1e-4;
    for (const char* name : kAllPolicies) {
        std::vector<Request> reqs = base;
        CheckedScheduler checked(makePolicy(name, w));
        runSingleNode(singleNodeSimConfig(cfg), reqs, checked);
    }
}

TEST(PickNextProperty, MatchesLinearScanOnMultiNodeClusterRuns)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed * 104729);
        World w = randomWorld(rng);
        std::vector<Request> base = randomRequests(w, rng, 60);

        for (const char* name : kAllPolicies) {
            std::vector<Request> reqs = base;
            LeastBacklogDispatcher lb(w.lut);
            SimConfig cfg;
            cfg.nodes = {scaledNodeProfile("slow", 0.7),
                         referenceNodeProfile("ref"),
                         scaledNodeProfile("fast", 1.6)};
            SimResult r = runSimulation(
                cfg, reqs, lb, [&](const NodeProfile&, int) {
                    return std::make_unique<CheckedScheduler>(
                        makePolicy(name, w));
                });
            EXPECT_EQ(r.metrics.completed, reqs.size())
                << name << " seed " << seed;
        }
    }
}

TEST(PickNextProperty, SjfWithDystaEstimatorRekeysOnSparsity)
{
    // SRTF under a sparsity-refined estimator exercises the lazy
    // re-keying path: remainders change at every observation.
    Rng rng(99);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        World w = randomWorld(rng);
        std::vector<Request> reqs = randomRequests(w, rng, 40);
        CheckedScheduler checked(std::make_unique<SjfScheduler>(
            std::make_unique<DystaEstimator>(w.lut)));
        SimResult r = runSingleNode(singleNodeSimConfig(), reqs, checked);
        EXPECT_EQ(r.metrics.completed, reqs.size()) << seed;
    }
}
