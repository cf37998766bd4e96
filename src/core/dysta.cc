#include "core/dysta.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/parse.hh"

namespace dysta {

DystaScheduler::DystaScheduler(const ModelInfoLut& lut,
                               DystaConfig config)
    : Scheduler(std::make_unique<DystaEstimator>(
          lut, config.predictor,
          /*refine=*/config.dynamicLevel && config.sparsityAware)),
      cfg(config)
{
    // scoreFrom clamps the slack into [slackFloor, slackCapFactor x
    // T_isol]; a floor at or below zero and a cap at or above it keep
    // that range ordered for every positive T_isol.
    fatalIf(!(cfg.slackFloor <= 0.0 && cfg.slackCapFactor >= 0.0),
            "Dysta: need slack_floor <= 0 <= slack_cap, got slack_floor " +
                shortestDouble(cfg.slackFloor) + ", slack_cap " +
                shortestDouble(cfg.slackCapFactor));
}

std::string
DystaScheduler::name() const
{
    if (!cfg.dynamicLevel)
        return "Dysta-w/o-sparse";
    if (!cfg.sparsityAware)
        return "Dysta-static-dyn";
    return "Dysta";
}

void
DystaScheduler::reset()
{
    Scheduler::reset();
    order.clear();
    position.clear();
    staticQueue.clear();
    nextSeq = 0;
}

void
DystaScheduler::onArrival(const Request& req, double now)
{
    Scheduler::onArrival(req, now);
    panicIf(position.contains(req), "Dysta: duplicate request id");

    // Alg. 1: Lat from the LUT; slack against the request's SLO;
    // initial score balances ANTT (latency term) and violations
    // (slack term) through beta.
    double lat = est->isolated(req);
    double slo_rel = req.deadline - req.arrival;
    double slack = slo_rel - lat;
    double score = lat + cfg.beta * slack;

    Entry e;
    e.req = &req;
    e.staticScore = score;
    e.remaining = est->remaining(req);
    e.isol = std::max(lat, 1e-12);
    e.seq = nextSeq++;
    position.emplace(req, order.size());
    order.push_back(e);

    if (!cfg.dynamicLevel)
        staticQueue.push(&req, {score, e.seq});
}

void
DystaScheduler::onLayerComplete(const Request& req, double now,
                                double monitored_sparsity)
{
    // Zero-count monitor feeds the shared estimator (Alg. 3); the
    // estimator gates on the refinement ablation and on whether the
    // monitor captured the layer.
    Scheduler::onLayerComplete(req, now, monitored_sparsity);

    const size_t* idx = position.find(req);
    if (idx == nullptr) {
        panicIf(cfg.dynamicLevel && cfg.sparsityAware &&
                    monitored_sparsity >= 0.0,
                "Dysta: unknown request");
        return;
    }
    // Lazy re-key: progress (and possibly a sparsity observation)
    // changed only this request's remainder.
    order[*idx].remaining = est->remaining(req);
}

void
DystaScheduler::onComplete(const Request& req, double now)
{
    Scheduler::onComplete(req, now);
    const size_t* found = position.find(req);
    if (found == nullptr)
        return;
    size_t idx = *found;
    position.erase(req);
    if (idx != order.size() - 1) {
        order[idx] = order.back();
        if (size_t* moved = position.find(*order[idx].req))
            *moved = idx;
    }
    order.pop_back();
    if (staticQueue.contains(req))
        staticQueue.erase(req);
}

double
DystaScheduler::scoreFrom(const Entry& e, double now,
                          double queue_size) const
{
    const Request& req = *e.req;
    double slack = std::clamp(req.deadline - now - e.remaining,
                              cfg.slackFloor,
                              cfg.slackCapFactor * e.isol);
    double wait = std::max(0.0, now - req.lastRunEnd);
    double penalty =
        std::min(wait / e.isol, cfg.penaltyCap) / queue_size;
    return e.remaining + cfg.eta * (slack + penalty);
}

double
DystaScheduler::dynamicScore(const Request& req, double now,
                             size_t queue_size) const
{
    const size_t* idx = position.find(req);
    panicIf(idx == nullptr, "Dysta: unknown request");

    // Fresh estimates (not the cache): the reference path must be
    // exact even for direct calls outside the engine.
    Entry e = order[*idx];
    e.remaining = est->remaining(req);
    e.isol = std::max(est->isolated(req), 1e-12);
    return scoreFrom(e, now, static_cast<double>(queue_size));
}

size_t
DystaScheduler::selectNext(const std::vector<const Request*>& ready,
                           double now)
{
    size_t best = 0;
    double best_score = 0.0;
    for (size_t i = 0; i < ready.size(); ++i) {
        double score;
        if (cfg.dynamicLevel) {
            score = dynamicScore(*ready[i], now, ready.size());
        } else {
            const size_t* idx = position.find(*ready[i]);
            panicIf(idx == nullptr, "Dysta: unknown request");
            score = order[*idx].staticScore;
        }
        if (i == 0 || score < best_score) {
            best = i;
            best_score = score;
        }
    }
    return best;
}

Request*
DystaScheduler::pickNext(const std::vector<Request*>& ready, double now)
{
    if (!cfg.dynamicLevel) {
        // Frozen static scores are time-invariant: O(1) heap peek.
        panicIf(staticQueue.size() != ready.size(),
                "DystaScheduler: ready queue out of sync with engine "
                "(missing onArrival/onComplete callbacks?)");
        return const_cast<Request*>(staticQueue.top());
    }

    panicIf(order.size() != ready.size(),
            "DystaScheduler: ready queue out of sync with engine "
            "(missing onArrival/onComplete callbacks?)");

    // One tight pass over the dense cache — identical decisions to
    // selectNext, but no per-candidate hash, LUT or predictor work.
    double queue_size = static_cast<double>(order.size());
    const Entry* best = nullptr;
    double best_score = 0.0;
    for (const Entry& e : order) {
        double score = scoreFrom(e, now, queue_size);
        if (best == nullptr || score < best_score ||
            (score == best_score && e.seq < best->seq)) {
            best = &e;
            best_score = score;
        }
    }
    panicIf(best == nullptr, "DystaScheduler: empty ready set");
    return const_cast<Request*>(best->req);
}

DystaConfig
dystaWithoutSparseConfig()
{
    DystaConfig cfg;
    cfg.sparsityAware = false;
    cfg.dynamicLevel = false;
    return cfg;
}

DystaConfig
tunedDystaConfig(bool cnn_workload)
{
    // Grid-searched on the benchmark (bench/ablation_hyperparams):
    // CNN slacks span seconds and benefit from a stronger deadline
    // tilt; AttNN workloads run closer to saturation where the
    // shortest-predicted-remaining ordering dominates.
    DystaConfig cfg;
    cfg.eta = cnn_workload ? 0.06 : 0.02;
    return cfg;
}

} // namespace dysta
