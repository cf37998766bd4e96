#include "serve/dispatcher.hh"

#include <unordered_set>

#include "util/logging.hh"

namespace dysta {

size_t
RoundRobinDispatcher::selectNode(
    const Request& req,
    const std::vector<std::unique_ptr<SimNode>>& nodes, double now)
{
    (void)req;
    (void)now;
    panicIf(nodes.empty(), "RoundRobinDispatcher: no nodes");
    // Rotate past unavailable nodes; the core guarantees at least
    // one node is available, so this terminates.
    for (size_t attempts = 0; attempts <= nodes.size(); ++attempts) {
        size_t idx = static_cast<size_t>(next++ % nodes.size());
        if (nodes[idx]->available())
            return idx;
    }
    panic("RoundRobinDispatcher: no available node");
}

size_t
LeastOutstandingDispatcher::selectNode(
    const Request& req,
    const std::vector<std::unique_ptr<SimNode>>& nodes, double now)
{
    (void)req;
    (void)now;
    panicIf(nodes.empty(), "LeastOutstandingDispatcher: no nodes");
    size_t best = nodes.size();
    for (size_t i = 0; i < nodes.size(); ++i) {
        if (!nodes[i]->available())
            continue;
        // Strict < keeps the lowest-id node on ties.
        if (best == nodes.size() ||
            nodes[i]->outstanding() < nodes[best]->outstanding())
            best = i;
    }
    panicIf(best == nodes.size(),
            "LeastOutstandingDispatcher: no available node");
    return best;
}

EstimatorDispatcher::EstimatorDispatcher(const ModelInfoLut& lut,
                                         PredictorConfig predictor_cfg,
                                         bool sparsity_aware)
{
    if (sparsity_aware) {
        est = std::make_unique<DystaEstimator>(lut, predictor_cfg,
                                               /*refine=*/true);
    } else {
        est = std::make_unique<LutEstimator>(lut);
    }
}

void
EstimatorDispatcher::reset()
{
    est->reset();
}

void
EstimatorDispatcher::onLayerComplete(const SimNode& node,
                                     const Request& req, double now,
                                     double monitored_sparsity)
{
    (void)node;
    (void)now;
    est->observe(req, monitored_sparsity);
}

void
EstimatorDispatcher::onComplete(const SimNode& node,
                                const Request& req, double now)
{
    (void)node;
    (void)now;
    est->release(req);
}

void
EstimatorDispatcher::onShed(const Request& req, double now)
{
    (void)now;
    est->release(req);
}

void
EstimatorDispatcher::onCancel(const Request& req, double now)
{
    // The cancelled attempt's refinement state is void; a retry
    // re-admits through selectNode (admit/release are idempotent by
    // request id, so the lifecycle stays balanced).
    (void)now;
    est->release(req);
}

LeastBacklogDispatcher::LeastBacklogDispatcher(
    const ModelInfoLut& lut, PredictorConfig predictor_cfg,
    bool sparsity_aware)
    : EstimatorDispatcher(lut, predictor_cfg, sparsity_aware),
      sparsityAware(sparsity_aware)
{
}

std::string
LeastBacklogDispatcher::name() const
{
    return sparsityAware ? "least-backlog" : "least-backlog-lut";
}

double
LeastBacklogDispatcher::estRemaining(const Request& req) const
{
    return est->remaining(req);
}

double
LeastBacklogDispatcher::backlogEstimate(const SimNode& node) const
{
    double work = 0.0;
    for (const Request* req : node.queue())
        work += estRemaining(*req);
    return work / node.profile().speedFactor;
}

size_t
LeastBacklogDispatcher::selectNode(
    const Request& req,
    const std::vector<std::unique_ptr<SimNode>>& nodes, double now)
{
    (void)now;
    panicIf(nodes.empty(), "LeastBacklogDispatcher: no nodes");

    double iso = est->isolated(req);
    size_t best = nodes.size();
    double best_score = 0.0;
    for (size_t i = 0; i < nodes.size(); ++i) {
        if (!nodes[i]->available())
            continue;
        // Backlog already on the node plus the candidate itself, in
        // node-seconds: a fast node absorbs the same queue sooner.
        double score = backlogEstimate(*nodes[i]) +
                       iso / nodes[i]->profile().speedFactor;
        if (best == nodes.size() || score < best_score) {
            best = i;
            best_score = score;
        }
    }
    panicIf(best == nodes.size(),
            "LeastBacklogDispatcher: no available node");

    est->admit(req);
    return best;
}

// --- CapabilityAwareDispatcher ---------------------------------------------

CapabilityAwareDispatcher::CapabilityAwareDispatcher(
    const ModelInfoLut& lut, PredictorConfig predictor_cfg,
    bool sparsity_aware)
    : EstimatorDispatcher(lut, predictor_cfg, sparsity_aware)
{
}

const ScaledEstimator&
CapabilityAwareDispatcher::viewFor(const NodeCapability& cap)
{
    auto it = views.find(cap.speedFactor);
    if (it == views.end()) {
        it = views
                 .emplace(cap.speedFactor,
                          std::make_unique<ScaledEstimator>(
                              *est, cap.speedFactor))
                 .first;
    }
    return *it->second;
}

const ScaledEstimator&
CapabilityAwareDispatcher::nodeView(const SimNode& node)
{
    return viewFor(node.capability());
}

double
CapabilityAwareDispatcher::backlogOn(const SimNode& node)
{
    const ScaledEstimator& view = nodeView(node);
    double work = 0.0;
    for (const Request* req : node.queue())
        work += view.remaining(*req);
    return work;
}

size_t
CapabilityAwareDispatcher::selectNode(
    const Request& req,
    const std::vector<std::unique_ptr<SimNode>>& nodes, double now)
{
    (void)now;
    panicIf(nodes.empty(), "CapabilityAwareDispatcher: no nodes");

    size_t best = nodes.size();
    double best_score = 0.0;
    for (size_t i = 0; i < nodes.size(); ++i) {
        NodeCapability cap = nodes[i]->capability();
        if (!cap.available)
            continue;
        // Estimated completion in node-local seconds: the backlog
        // ahead plus the candidate's own isolated latency on this
        // node class. Strict < keeps the lowest-id node on ties.
        double score =
            backlogOn(*nodes[i]) + viewFor(cap).isolated(req);
        if (best == nodes.size() || score < best_score) {
            best = i;
            best_score = score;
        }
    }
    panicIf(best == nodes.size(),
            "CapabilityAwareDispatcher: no available node");

    est->admit(req);
    return best;
}

// --- WorkStealingDispatcher -------------------------------------------------

WorkStealingDispatcher::WorkStealingDispatcher(
    const ModelInfoLut& lut, WorkStealingConfig steal_cfg,
    PredictorConfig predictor_cfg, bool sparsity_aware)
    : CapabilityAwareDispatcher(lut, predictor_cfg, sparsity_aware),
      cfg(steal_cfg)
{
    fatalIf(cfg.imbalanceRatio < 1.0,
            "WorkStealingDispatcher: imbalance ratio must be >= 1");
}

std::vector<Migration>
WorkStealingDispatcher::rebalance(
    const std::vector<std::unique_ptr<SimNode>>& nodes, double now)
{
    (void)now;
    std::vector<Migration> moves;
    if (nodes.size() < 2)
        return moves;
    std::unordered_set<int> proposed;

    // Node-local estimated backlogs, kept incrementally consistent
    // with the proposed moves so one cycle converges instead of
    // bouncing the same request around.
    std::vector<double> backlog(nodes.size(), 0.0);
    std::vector<bool> stealable(nodes.size(), false);
    size_t num_available = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
        if (!nodes[i]->available())
            continue;
        ++num_available;
        backlog[i] = backlogOn(*nodes[i]);
        stealable[i] = true;
    }
    if (num_available < 2)
        return moves;

    while (moves.size() < cfg.maxMovesPerCycle) {
        // Most-loaded stealable node and least-loaded available
        // node, both with lowest-id tie-breaks (scan order).
        size_t imax = nodes.size();
        size_t imin = nodes.size();
        for (size_t i = 0; i < nodes.size(); ++i) {
            if (!nodes[i]->available())
                continue;
            if (stealable[i] &&
                (imax == nodes.size() || backlog[i] > backlog[imax]))
                imax = i;
            if (imin == nodes.size() || backlog[i] < backlog[imin])
                imin = i;
        }
        if (imax == nodes.size() || imax == imin)
            break;
        if (backlog[imax] <= cfg.imbalanceRatio * backlog[imin] ||
            backlog[imax] - backlog[imin] <= cfg.minImbalanceSec)
            break;

        // Steal LIFO: the most recently placed request that has not
        // started (and is not in flight) leaves first. Requests
        // already proposed this cycle still sit in their old node's
        // queue (moves apply after the hook returns), so skip them.
        Request* victim = nullptr;
        const auto& queue = nodes[imax]->queue();
        for (size_t k = queue.size(); k-- > 0;) {
            Request* req = queue[k];
            if (req->nextLayer == 0 &&
                req != nodes[imax]->current() &&
                proposed.count(req->id) == 0) {
                victim = req;
                break;
            }
        }
        if (victim == nullptr) {
            // Everything on the heavy node already started; it can
            // not shed load this cycle.
            stealable[imax] = false;
            continue;
        }

        // Profitability guard for heterogeneous fleets: moving to a
        // slow node is only a win if the victim still finishes
        // earlier there (destination backlog + its node-local
        // latency) than waiting out the heavy node's queue.
        double stay = backlog[imax];
        double move = backlog[imin] +
                      nodeView(*nodes[imin]).remaining(*victim);
        if (move >= stay) {
            stealable[imax] = false;
            continue;
        }

        moves.push_back({victim, imax, imin});
        proposed.insert(victim->id);
        backlog[imax] -= nodeView(*nodes[imax]).remaining(*victim);
        backlog[imin] += nodeView(*nodes[imin]).remaining(*victim);
    }
    return moves;
}

} // namespace dysta
