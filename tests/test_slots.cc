/**
 * @file
 * Run-slot semantics of the per-request state tables
 * (sched/slot_table.hh): runSimulation hands each live request a
 * dense slot no other live request holds; a slot reused by a new
 * request never inherits a leaked tenant's state in any estimator,
 * scheduler or ready queue; and a hedge clone, which copies its
 * primary's id and slot, shares the primary's estimator state
 * exactly as id-keyed state did.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/dysta.hh"
#include "core/estimator.hh"
#include "exp/experiments.hh"
#include "hw/hw_scheduler.hh"
#include "sched/engine.hh"
#include "sched/fcfs.hh"
#include "sched/prema.hh"
#include "sim/ready_queue.hh"
#include "workload/workload.hh"

using namespace dysta;

namespace {

BenchContext&
ctx()
{
    static std::unique_ptr<BenchContext> instance = [] {
        BenchSetup setup;
        setup.samplesPerModel = 20;
        setup.includeCnn = false;
        return makeBenchContext(setup);
    }();
    return *instance;
}

/** A dense-pattern request of `model` holding run slot `slot`. */
Request
requestOf(int id, int slot, const std::string& model)
{
    ModelKey key = ctx().registry.key(model, SparsityPattern::Dense);
    const TraceSet& set = ctx().registry.get(key);
    Request req = makeRequest(id, key, set.sample(0), 0.0, 10.0,
                              set.avgTotalLatency());
    req.slot = slot;
    return req;
}

const ModelInfo&
infoOf(const std::string& model)
{
    return ctx().lut.lookup(model, SparsityPattern::Dense);
}

/** Layers of `model` with a profiled sparsity baseline. */
std::vector<size_t>
profiledLayers(const std::string& model)
{
    const ModelInfo& info = infoOf(model);
    std::vector<size_t> layers;
    for (size_t l = 0; l < info.avgLayerSparsity.size(); ++l) {
        if (info.avgLayerSparsity[l] >= 0.0)
            layers.push_back(l);
    }
    return layers;
}

/**
 * Let `est` see layer `layer` of `req` complete with a monitored
 * sparsity far from the profiled average, so gamma moves off 1.
 */
void
observeOffProfile(LatencyEstimator& est, Request& req, size_t layer)
{
    double avg = ctx().lut.lookup(req.model).avgLayerSparsity[layer];
    req.nextLayer = layer + 1;
    est.observe(req, avg > 0.5 ? 0.0 : 0.9);
}

/** FCFS that checks no two live requests ever share a run slot. */
class SlotAuditScheduler : public FcfsScheduler
{
  public:
    void
    onArrival(const Request& req, double now) override
    {
        FcfsScheduler::onArrival(req, now);
        ASSERT_GE(req.slot, 0);
        auto slot = static_cast<size_t>(req.slot);
        if (slot >= owner.size())
            owner.resize(slot + 1, -1);
        EXPECT_EQ(owner[slot], -1)
            << "slot " << slot << " handed to request " << req.id
            << " while request " << owner[slot] << " is live";
        owner[slot] = req.id;
        ++live;
        peakLive = std::max(peakLive, live);
        slotsUsed = std::max(slotsUsed, slot + 1);
    }

    void
    onComplete(const Request& req, double now) override
    {
        FcfsScheduler::onComplete(req, now);
        owner[static_cast<size_t>(req.slot)] = -1;
        --live;
    }

    std::vector<int> owner;
    size_t live = 0;
    size_t peakLive = 0;
    size_t slotsUsed = 0;
};

} // namespace

TEST(RunSlots, LiveRequestsHoldDistinctSlotsFromASmallRange)
{
    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 60.0;
    wl.numRequests = 300;
    wl.seed = 5;
    std::vector<Request> reqs = generateWorkload(wl, ctx().registry);

    SlotAuditScheduler audit;
    SimResult result = runSingleNode(singleNodeSimConfig(), reqs, audit);
    EXPECT_EQ(result.metrics.completed, 300u);
    EXPECT_EQ(audit.live, 0u);
    // Slots are recycled: at most the peak number of live requests
    // plus the one arrival already pumped into the calendar.
    EXPECT_LE(audit.slotsUsed, audit.peakLive + 1);
    EXPECT_LT(audit.slotsUsed, reqs.size());
}

TEST(RunSlots, LeakedTenantIsInvisibleToTheNextOwnerOfItsSlot)
{
    // A (id 1) is admitted into slot 0 and never released; B (id 2)
    // then holds slot 0. Every per-request table must treat B as a
    // request it has never seen.
    Request a = requestOf(1, 0, "bert");
    Request b = requestOf(2, 0, "gpt2");
    const ModelInfo& b_info = infoOf("gpt2");
    ASSERT_NE(infoOf("bert").avgLatency, b_info.avgLatency);

    LutEstimator lut(ctx().lut);
    lut.admit(a);
    EXPECT_DOUBLE_EQ(lut.remaining(b), b_info.estRemaining(0));
    EXPECT_DOUBLE_EQ(lut.isolated(b), b_info.avgLatency);

    DystaEstimator dysta(ctx().lut);
    dysta.admit(a);
    ASSERT_FALSE(profiledLayers("bert").empty());
    observeOffProfile(dysta, a, profiledLayers("bert").front());
    ASSERT_NE(dysta.gamma(a), 1.0);
    EXPECT_FALSE(dysta.tracks(b));
    EXPECT_DOUBLE_EQ(dysta.gamma(b), 1.0);
    EXPECT_DOUBLE_EQ(dysta.remaining(b), b_info.estRemaining(0));
    EXPECT_DOUBLE_EQ(dysta.isolated(b), b_info.avgLatency);

    // The schedulers panic on a duplicate arrival, so accepting B
    // shows it did not inherit A's entry; scoring B panics unless B
    // has an entry of its own.
    DystaScheduler dysta_sched(ctx().lut);
    dysta_sched.onArrival(a, 0.0);
    dysta_sched.onArrival(b, 0.0);
    EXPECT_GT(dysta_sched.dynamicScore(b, 0.0, 1), 0.0);

    PremaScheduler prema(ctx().lut);
    prema.onArrival(a, 0.0);
    prema.onArrival(b, 0.0);
    prema.onComplete(b, 0.0);

    IndexedMinHeap heap;
    heap.push(&a, {1.0, 0});
    heap.push(&b, {2.0, 1});
    EXPECT_TRUE(heap.contains(b));
    EXPECT_FALSE(heap.contains(a));
    heap.updatePrimary(b, 0.5);
    EXPECT_EQ(heap.top(), &b);
    heap.erase(b);
    EXPECT_EQ(heap.size(), 1u); // only the leaked A is left

    DystaHwScheduler hw(ctx().lut, ctx().models);
    hw.onArrival(a, 0.0);
    hw.onLayerComplete(a, 0.0, 0.0);
    hw.onArrival(b, 0.0);
    std::vector<const Request*> ready = {&b};
    // Panics unless B is resident with state of its own.
    EXPECT_EQ(hw.selectNext(ready, 0.0), 0u);
}

TEST(RunSlots, HedgeCloneSharesItsPrimarysEstimatorState)
{
    Request primary = requestOf(7, 3, "bert");
    // What the hedge handler does: a full copy, then the clone flags.
    Request clone = primary;
    clone.isHedgeClone = true;
    clone.hedgePeer = &primary;
    EXPECT_EQ(clone.slot, primary.slot);

    // Observing the clone through one shared estimator must move the
    // primary's prediction exactly as observing the primary does.
    DystaEstimator shared(ctx().lut);
    DystaEstimator reference(ctx().lut);
    shared.admit(primary);
    shared.admit(clone); // idempotent: the copies share one predictor
    reference.admit(primary);
    std::vector<size_t> layers = profiledLayers("bert");
    ASSERT_GE(layers.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        observeOffProfile(shared, clone, layers[i]);
        observeOffProfile(reference, primary, layers[i]);
    }
    ASSERT_NE(reference.gamma(primary), 1.0);
    EXPECT_EQ(shared.gamma(primary), reference.gamma(primary));
    EXPECT_EQ(shared.gamma(clone), reference.gamma(primary));
    EXPECT_EQ(shared.remaining(primary), reference.remaining(primary));

    // Completing the clone retires the primary's state too.
    shared.release(clone);
    EXPECT_FALSE(shared.tracks(primary));
    EXPECT_DOUBLE_EQ(shared.gamma(primary), 1.0);
}
