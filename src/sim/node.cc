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
    ++failEpoch;

    // The policy forgets every queued request (in queue order); the
    // caller decides their fate (re-dispatch, restart or shed).
    std::vector<Request*> displaced = std::move(ready);
    ready.clear();
    for (Request* req : displaced) {
        sched->onDequeue(*req, now);
        req->lastNode = -1;
    }

    running = nullptr;
    blockOwner = nullptr;
    blockExecuted = 0;
    lastRun = nullptr;
    batch.clear();
    return displaced;
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
    auto it = std::find(ready.begin(), ready.end(), req);
    panicIf(it == ready.end(),
            "SimNode::removeQueued: request not queued here");
    ready.erase(it);
    sched->onDequeue(*req, now);
    req->lastNode = -1;
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
        // Its layer is in flight: abandon it. The epoch bump stales
        // the pending layer-complete event, exactly like fail().
        // With batching the anchor owns the step, so the whole batch
        // loses it (members keep their progress in the ready queue).
        running = nullptr;
        blockOwner = nullptr;
        blockExecuted = 0;
        lastRun = nullptr;
        batch.clear();
        ++failEpoch;
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

double
SimNode::startLayer(double now)
{
    const LayerTrace& layer =
        blockOwner->trace->layers[blockOwner->nextLayer];
    running = blockOwner;
    layerEnd = now + layerLatency(layer);
    if (telemetry)
        telemetry->execStart(*blockOwner, nodeId,
                             blockOwner->nextLayer, now);
    return layerEnd;
}

double
SimNode::beginBlock(double now)
{
    panicIf(busy(), "SimNode::beginBlock while busy");
    panicIf(ready.empty(), "SimNode::beginBlock with empty queue");
    panicIf(nodeState == NodeState::Down,
            "SimNode::beginBlock on a failed node");

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

    return startLayer(now + prof.decisionOverheadSec);
}

Request*
SimNode::completeLayer()
{
    panicIf(!busy(), "SimNode::completeLayer on idle node");
    Request* req = running;
    size_t layer_idx = req->nextLayer;
    const LayerTrace& layer = req->trace->layers[layer_idx];

    req->executedTime += layerLatency(layer);
    ++req->nextLayer;
    req->lastRunEnd = layerEnd;
    lastSparsity = layer.monitoredSparsity;
    ++blockExecuted;
    running = nullptr;

    sched->onLayerComplete(*req, layerEnd, layer.monitoredSparsity);
    if (telemetry)
        telemetry->layerComplete(*req, nodeId, layer_idx,
                                 layerEnd - layerLatency(layer),
                                 layerEnd, layer.monitoredSparsity);

    if (req->done()) {
        req->finishTime = layerEnd;
        sched->onComplete(*req, layerEnd);
        ready.erase(std::find(ready.begin(), ready.end(), req));
        req->lastNode = -1;
        ++numCompleted;
        blockOwner = nullptr;
        lastRun = nullptr;
        if (telemetry)
            telemetry->complete(*req, nodeId, ready.size(), layerEnd);
        return req;
    }
    lastRun = req;
    return nullptr;
}

bool
SimNode::blockContinues() const
{
    panicIf(busy(), "SimNode::blockContinues while busy");
    size_t block = std::max<size_t>(1, prof.layerBlockSize);
    return blockOwner != nullptr && !blockOwner->done() &&
           blockExecuted < block;
}

double
SimNode::continueBlock(double now)
{
    panicIf(!blockContinues(), "SimNode::continueBlock at boundary");
    (void)now; // layers within a block run back to back
    return startLayer(layerEnd);
}

// --- dynamic batching ------------------------------------------------

bool
SimNode::inActiveBatch(const Request* req) const
{
    return running != nullptr &&
           std::find(batch.begin(), batch.end(), req) != batch.end();
}

bool
SimNode::batchShouldHold(double now, double* release_at) const
{
    if (!batchCfg.enabled || batchCfg.maxDelaySec <= 0.0)
        return false;
    if (ready.size() >= static_cast<size_t>(batchCfg.maxSize))
        return false;
    double oldest = ready.front()->nodeEnqueueTime;
    for (const Request* r : ready)
        oldest = std::min(oldest, r->nodeEnqueueTime);
    if (now >= oldest + batchCfg.maxDelaySec)
        return false;
    *release_at = oldest + batchCfg.maxDelaySec;
    return true;
}

/**
 * Fill the batch from the ready queue up to maxSize, ordered by the
 * composition policy. Candidate ranking consults the scheduler's own
 * estimator (sparsity-refined under Dysta); estimator-less policies
 * (FCFS) fall back to queue order for every composition. Each
 * candidate's rank key is computed once, and a stable insertion sort
 * on it gives exactly the order of a stable comparator sort over the
 * same expression, without allocating.
 */
void
SimNode::composeBatch(double now, bool at_join)
{
    size_t cap = static_cast<size_t>(batchCfg.maxSize);
    if (batch.size() >= cap)
        return;

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
        if (batch.size() >= cap)
            break;
        Request* r = c.req;
        batch.push_back(r);
        if (r->nextLayer == 0) {
            bstats.fillWaitSec += now - r->nodeEnqueueTime;
            ++bstats.fillWaitCount;
        }
        if (at_join) {
            ++bstats.joins;
            if (telemetry)
                telemetry->batchJoin(*r, nodeId, r->nextLayer, now);
        }
    }
}

double
SimNode::startBatchStep(double now)
{
    double base = 0.0;
    for (const Request* m : batch)
        base = std::max(base,
                        layerLatency(m->trace->layers[m->nextLayer]));
    batchStepBase = base;
    batchStepLat =
        base * (1.0 + batchCfg.overhead *
                          static_cast<double>(batch.size() - 1));
    running = blockOwner;
    layerEnd = now + batchStepLat;
    if (telemetry)
        telemetry->execStart(*blockOwner, nodeId,
                             blockOwner->nextLayer, now);
    return layerEnd;
}

double
SimNode::beginBatch(double now)
{
    panicIf(busy(), "SimNode::beginBatch while busy");
    panicIf(ready.empty(), "SimNode::beginBatch with empty queue");
    panicIf(nodeState == NodeState::Down,
            "SimNode::beginBatch on a failed node");
    panicIf(!batchCfg.enabled, "SimNode::beginBatch without batching");

    Request* pick = sched->pickNext(ready, now);
    ++numDecisions;
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
    batch.push_back(pick);
    if (pick->nextLayer == 0) {
        bstats.fillWaitSec += now - pick->nodeEnqueueTime;
        ++bstats.fillWaitCount;
    }
    composeBatch(now, false);
    ++bstats.formed;
    if (telemetry)
        telemetry->batchForm(*pick, nodeId, batch.size(), now);
    return startBatchStep(now + prof.decisionOverheadSec);
}

const std::vector<Request*>&
SimNode::completeBatchStep()
{
    panicIf(!busy(), "SimNode::completeBatchStep on idle node");
    running = nullptr;
    ++blockExecuted;
    ++bstats.steps;
    bstats.memberSteps += batch.size();

    completed.clear();
    for (Request* m : batch) {
        size_t layer_idx = m->nextLayer;
        const LayerTrace& layer = m->trace->layers[layer_idx];
        double own = layerLatency(layer);
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
        if (telemetry)
            telemetry->complete(*m, nodeId, ready.size(), layerEnd);
    }
    if (blockOwner->done()) {
        blockOwner = nullptr;
        lastRun = nullptr;
    } else {
        lastRun = blockOwner;
    }
    return completed;
}

void
SimNode::batchJoin(double now)
{
    panicIf(busy(), "SimNode::batchJoin while busy");
    panicIf(!blockContinues(), "SimNode::batchJoin at block boundary");
    composeBatch(now, true);
}

double
SimNode::continueBatchStep(double now)
{
    panicIf(!blockContinues(),
            "SimNode::continueBatchStep at boundary");
    (void)now; // steps within a block run back to back
    return startBatchStep(layerEnd);
}

} // namespace dysta
