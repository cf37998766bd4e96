#include "sim/node.hh"

#include <algorithm>
#include <cmath>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace dysta {

NodeHw
referenceNodeHw()
{
    return NodeHw{};
}

double
hwSpeedFactor(const NodeHw& hw)
{
    fatalIf(hw.peCount <= 0, "hwSpeedFactor: PE count must be positive");
    fatalIf(hw.clockHz <= 0.0, "hwSpeedFactor: clock must be positive");
    fatalIf(hw.derate <= 0.0, "hwSpeedFactor: derate must be positive");
    NodeHw ref = referenceNodeHw();
    return (static_cast<double>(hw.peCount) * hw.clockHz * hw.derate) /
           (static_cast<double>(ref.peCount) * ref.clockHz);
}

std::string
toString(NodeState state)
{
    switch (state) {
      case NodeState::Up:
        return "up";
      case NodeState::Draining:
        return "draining";
      case NodeState::Down:
        return "down";
    }
    return "?";
}

NodeProfile
referenceNodeProfile(const std::string& name)
{
    NodeProfile p;
    p.name = name;
    p.speedFactor = 1.0;
    return p;
}

NodeProfile
scaledNodeProfile(const std::string& name, double speed)
{
    fatalIf(speed <= 0.0,
            "scaledNodeProfile: speed factor must be positive");
    NodeProfile p;
    p.name = name;
    p.speedFactor = speed;
    return p;
}

NodeProfile
nodeProfileFromHw(const std::string& name, NodeHw hw)
{
    NodeProfile p;
    p.name = name;
    p.speedFactor = hwSpeedFactor(hw);
    p.hw = std::move(hw);
    return p;
}

SimNode::SimNode(int id, NodeProfile profile,
                 std::unique_ptr<Scheduler> policy)
    : nodeId(id), prof(std::move(profile)), sched(std::move(policy))
{
    panicIf(sched == nullptr, "SimNode: null scheduling policy");
    fatalIf(prof.speedFactor <= 0.0,
            "SimNode: speed factor must be positive");
}

double
SimNode::layerLatency(const LayerTrace& layer) const
{
    return layer.latency / prof.speedFactor;
}

NodeCapability
SimNode::capability() const
{
    NodeCapability cap;
    cap.id = nodeId;
    cap.state = nodeState;
    cap.available = available();
    cap.hwClass = prof.hw.hwClass;
    cap.speedFactor = prof.speedFactor;
    cap.outstanding = ready.size();
    return cap;
}

std::vector<Request*>
SimNode::fail(double now)
{
    if (nodeState == NodeState::Down)
        return {};
    nodeState = NodeState::Down;
    abandonStep();

    // The policy forgets every queued request (in queue order); the
    // caller decides their fate (re-dispatch, restart or shed).
    std::vector<Request*> displaced = std::move(ready);
    ready.clear();
    for (Request* req : displaced) {
        sched->onDequeue(*req, now);
        req->lastNode = -1;
    }
    return displaced;
}

void
SimNode::abandonStep()
{
    running = nullptr;
    blockOwner = nullptr;
    blockExecuted = 0;
    lastRun = nullptr;
    batch.clear();
    ++failEpoch; // stales the pending layer-complete event
}

void
SimNode::drain()
{
    if (nodeState == NodeState::Up)
        nodeState = NodeState::Draining;
}

void
SimNode::recover()
{
    nodeState = NodeState::Up;
}

void
SimNode::enqueue(Request* req, double now)
{
    panicIf(req == nullptr || req->trace == nullptr ||
                req->trace->layers.empty(),
            "SimNode: request without a trace");
    panicIf(nodeState == NodeState::Down,
            "SimNode: enqueue on a failed node");
    req->nextLayer = 0;
    req->executedTime = 0.0;
    req->lastRunEnd = req->arrival;
    req->finishTime = -1.0;
    req->lastNode = nodeId;
    req->nodeEnqueueTime = now;
    ready.push_back(req);
    sched->onArrival(*req, now);
}

void
SimNode::removeQueued(Request* req, double now)
{
    panicIf(req == nullptr, "SimNode::removeQueued: null request");
    panicIf(req == running || req == blockOwner,
            "SimNode::removeQueued: request is in flight");
    panicIf(inActiveBatch(req),
            "SimNode::removeQueued: request is in a running batch");
    panicIf(req->nextLayer != 0,
            "SimNode::removeQueued: request already started");
    panicIf(cancel(req, now) == CancelOutcome::NotHere,
            "SimNode::removeQueued: request not queued here");
}

SimNode::CancelOutcome
SimNode::cancel(Request* req, double now)
{
    panicIf(req == nullptr, "SimNode::cancel: null request");
    auto it = std::find(ready.begin(), ready.end(), req);
    if (it == ready.end())
        return CancelOutcome::NotHere;
    ready.erase(it);
    sched->onDequeue(*req, now);
    req->lastNode = -1;

    if (req == running) {
        // Its step is in flight: abandon it, exactly like fail(). The
        // anchor owns the step, so the whole batch loses it (members
        // keep their progress in the ready queue).
        abandonStep();
        return CancelOutcome::Running;
    }
    // A cancelled non-anchor member leaves its batch; an in-flight
    // step keeps its already-committed wall time.
    auto bit = std::find(batch.begin(), batch.end(), req);
    if (bit != batch.end())
        batch.erase(bit);
    if (req == blockOwner) {
        // Between layers of its block (the caller cancels at layer
        // boundaries): release the block without touching the epoch.
        blockOwner = nullptr;
        blockExecuted = 0;
    }
    if (lastRun == req)
        lastRun = nullptr;
    return CancelOutcome::Queued;
}

// --- step execution ------------------------------------------------

bool
SimNode::inActiveBatch(const Request* req) const
{
    return running != nullptr &&
           std::find(batch.begin(), batch.end(), req) != batch.end();
}

/** The hold rule past its fast exits: wait while the oldest waiter
 *  is inside the fill window. */
bool
SimNode::fillWindowOpen(double now, double* release_at) const
{
    double oldest = ready.front()->nodeEnqueueTime;
    for (const Request* r : ready)
        oldest = std::min(oldest, r->nodeEnqueueTime);
    if (now >= oldest + batchCfg.maxDelaySec)
        return false;
    *release_at = oldest + batchCfg.maxDelaySec;
    return true;
}

/** Add `req` to the current batch, counting its first-step wait. */
void
SimNode::admitMember(Request* req, double now)
{
    batch.push_back(req);
    if (batchCfg.enabled && req->nextLayer == 0) {
        bstats.fillWaitSec += now - req->nodeEnqueueTime;
        ++bstats.fillWaitCount;
    }
}

/**
 * Fill the batch from the ready queue up to the step cap, ordered by
 * the composition policy. Candidate ranking consults the scheduler's
 * own estimator (sparsity-refined under Dysta); estimator-less
 * policies (FCFS) fall back to queue order for every composition.
 * Each candidate's rank key is computed once, and a stable insertion
 * sort on it gives exactly the order of a stable comparator sort over
 * the same expression, without allocating.
 * @pre batch.size() < stepCap()
 */
void
SimNode::composeBatch(double now, bool at_join)
{
    ranked.clear();
    for (Request* r : ready) {
        if (std::find(batch.begin(), batch.end(), r) == batch.end())
            ranked.push_back({0.0, r});
    }
    if (ranked.empty())
        return;

    const LatencyEstimator* est = sched->estimator();
    auto perLayer = [&](const Request* r) {
        size_t left = r->layerCount() - r->nextLayer;
        return est->remaining(*r) /
               static_cast<double>(left == 0 ? 1 : left);
    };
    if (est != nullptr && batchCfg.compose == BatchCompose::Greedy) {
        for (RankedCandidate& c : ranked)
            c.key = est->remaining(*c.req);
    } else if (est != nullptr &&
               batchCfg.compose == BatchCompose::Sparsity) {
        // Group members of similar predicted density: per-layer
        // estimated time closest to the anchor's, so the step's max
        // tracks its mean instead of one dense straggler.
        double pivot = perLayer(blockOwner);
        for (RankedCandidate& c : ranked)
            c.key = std::abs(perLayer(c.req) - pivot);
    }
    // Stable: equal keys (all of them under fifo) keep queue order.
    for (size_t i = 1; i < ranked.size(); ++i) {
        RankedCandidate moving = ranked[i];
        size_t j = i;
        for (; j > 0 && moving.key < ranked[j - 1].key; --j)
            ranked[j] = ranked[j - 1];
        ranked[j] = moving;
    }

    for (const RankedCandidate& c : ranked) {
        if (batch.size() >= stepCap())
            break;
        Request* r = c.req;
        admitMember(r, now);
        if (at_join) {
            ++bstats.joins;
            if (telemetry)
                telemetry->batchJoin(*r, nodeId, r->nextLayer, now);
        }
    }
}

/**
 * Start a step of the current batch at `now`: the slowest member's
 * layer latency, inflated by the overhead of each marginal member.
 * A lone member's step is exactly its own layer latency.
 */
inline double
SimNode::startStep(double now)
{
    auto memberLatency = [&](const Request* m) {
        return layerLatency(m->trace->layers[m->nextLayer]);
    };
    double base = memberLatency(batch.front());
    for (size_t i = 1; i < batch.size(); ++i)
        base = std::max(base, memberLatency(batch[i]));
    batchStepBase = base;
    batchStepLat = base;
    if (batch.size() > 1)
        batchStepLat *= 1.0 + batchCfg.overhead *
                                  static_cast<double>(batch.size() - 1);
    running = blockOwner;
    layerEnd = now + batchStepLat;
    if (telemetry)
        telemetry->execStart(*blockOwner, nodeId,
                             blockOwner->nextLayer, now);
    return layerEnd;
}

double
SimNode::beginStep(double now)
{
    panicIf(busy(), "SimNode::beginStep while busy");
    panicIf(ready.empty(), "SimNode::beginStep with empty queue");
    panicIf(nodeState == NodeState::Down,
            "SimNode::beginStep on a failed node");

    Request* pick = sched->pickNext(ready, now);
    ++numDecisions;
    // Containment for buggy pickNext overrides (e.g. a user heap
    // that forgot to erase on completion): fail deterministically
    // instead of indexing a finished trace.
    panicIf(pick == nullptr || pick->done(),
            "SimNode: scheduler returned an invalid request");
    blockOwner = pick;
    blockExecuted = 0;

    if (lastRun != nullptr && blockOwner != lastRun &&
        lastRun->nextLayer > 0 && !lastRun->done()) {
        ++numPreemptions;
        if (telemetry)
            telemetry->preempt(*lastRun, nodeId, now);
    }

    batch.clear();
    admitMember(pick, now);
    if (stepCap() > 1)
        composeBatch(now, false);
    if (batchCfg.enabled) {
        ++bstats.formed;
        if (telemetry)
            telemetry->batchForm(*pick, nodeId, batch.size(), now);
    }
    return startStep(now + prof.decisionOverheadSec);
}

const std::vector<Request*>&
SimNode::completeStep()
{
    panicIf(!busy(), "SimNode::completeStep on idle node");
    running = nullptr;
    ++blockExecuted;
    const bool counting = batchCfg.enabled;
    if (counting) {
        ++bstats.steps;
        bstats.memberSteps += batch.size();
    }

    completed.clear();
    for (Request* m : batch) {
        size_t layer_idx = m->nextLayer;
        const LayerTrace& layer = m->trace->layers[layer_idx];
        double own = layerLatency(layer);
        if (counting)
            bstats.stragglerTaxSec += batchStepBase - own;
        m->executedTime += own;
        ++m->nextLayer;
        m->lastRunEnd = layerEnd;
        if (m == blockOwner)
            lastSparsity = layer.monitoredSparsity;
        sched->onLayerComplete(*m, layerEnd, layer.monitoredSparsity);
        if (telemetry)
            telemetry->layerComplete(*m, nodeId, layer_idx,
                                     layerEnd - batchStepLat,
                                     layerEnd,
                                     layer.monitoredSparsity);
        if (m->done())
            completed.push_back(m);
    }
    for (Request* m : completed) {
        m->finishTime = layerEnd;
        sched->onComplete(*m, layerEnd);
        ready.erase(std::find(ready.begin(), ready.end(), m));
        batch.erase(std::find(batch.begin(), batch.end(), m));
        m->lastNode = -1;
        ++numCompleted;
        if (m == blockOwner)
            blockOwner = nullptr; // a finished anchor ends its block
        if (telemetry)
            telemetry->complete(*m, nodeId, ready.size(), layerEnd);
    }
    lastRun = blockOwner;
    return completed;
}

double
SimNode::continueStep(double now)
{
    panicIf(!blockContinues(), "SimNode::continueStep at boundary");
    // Continuous batching: queued work may join at this boundary.
    if (batch.size() < stepCap())
        composeBatch(now, true);
    // Steps within a block run back to back.
    return startStep(layerEnd);
}

} // namespace dysta
