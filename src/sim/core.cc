#include "sim/core.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>

#include "chaos/failure.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace dysta {

namespace {

/**
 * The event loop shared by both runSimulation overloads. Arrivals
 * are pumped lazily from `source` — exactly one pending arrival in
 * the calendar at any time. Because sources emit arrivals in
 * non-decreasing time order and the Arrival kind wins every
 * same-time tie, this pops events in the same order as pushing all
 * arrivals up front, so the materialized path keeps its historical
 * schedule bit for bit. When `sink` is set, retired requests are
 * recorded there and handed back to the source; the materialized
 * caller passes nullptr and computes metrics from its surviving
 * vector instead.
 */
SimResult
runSimulationLoop(const SimConfig& cfg, ArrivalSource& source,
                  Dispatcher& dispatcher,
                  const PolicyFactory& make_policy,
                  StreamingMetrics* sink)
{
    fatalIf(cfg.nodes.empty(), "runSimulation: need at least one node");
    fatalIf(cfg.admission.enabled && cfg.lut == nullptr &&
                cfg.admissionEstimator == nullptr,
            "runSimulation: admission control requires a ModelInfoLut");
    fatalIf(cfg.admission.enabled && cfg.admission.margin <= 0.0,
            "runSimulation: admission margin must be positive");
    fatalIf(cfg.brownout.enabled && !cfg.admission.enabled,
            "runSimulation: brown-out degradation requires admission "
            "control");
    fatalIf(cfg.retry.enabled &&
                (cfg.retry.maxRetries < 0 ||
                 cfg.retry.timeoutFactor <= 0.0 ||
                 cfg.retry.backoff < 1.0 || cfg.retry.budget < 0.0),
            "runSimulation: malformed retry config");
    fatalIf(cfg.hedge.enabled &&
                (cfg.hedge.factor <= 0.0 || cfg.hedge.minSamples < 1),
            "runSimulation: malformed hedge config");
    for (double w : cfg.tierWeights)
        fatalIf(w <= 0.0,
                "runSimulation: tier weights must be positive");

    // Whether any resilience mechanism is configured. Scripted
    // nodeEvents alone do NOT activate resilience reporting — their
    // reports must stay byte-identical to pre-chaos builds.
    const bool resilience_on =
        cfg.chaos != nullptr || cfg.retry.enabled ||
        cfg.hedge.enabled || cfg.brownout.enabled ||
        !cfg.tierWeights.empty();

    // Dynamic batching. A rebalancing dispatcher would try to
    // migrate requests that are mid-step inside a running batch —
    // the migration contract cannot express that — so the
    // combination is rejected up front instead of panicking mid-run.
    const bool batch_on = cfg.batching.enabled;
    fatalIf(batch_on && dispatcher.wantsRebalance(),
            "runSimulation: dynamic batching is incompatible with "
            "rebalancing (work-stealing) dispatchers");

    SimResult result;
    dispatcher.reset();

    std::vector<std::unique_ptr<SimNode>> nodes;
    nodes.reserve(cfg.nodes.size());
    for (size_t i = 0; i < cfg.nodes.size(); ++i) {
        auto policy = make_policy(cfg.nodes[i], static_cast<int>(i));
        panicIf(policy == nullptr,
                "runSimulation: policy factory returned null");
        nodes.push_back(std::make_unique<SimNode>(
            static_cast<int>(i), cfg.nodes[i], std::move(policy)));
    }
    if (batch_on) {
        for (auto& node : nodes)
            node->setBatching(cfg.batching);
    }

    Telemetry* tele = cfg.telemetry;
    if (tele) {
        tele->beginRun(nodes.size());
        for (auto& node : nodes)
            node->setTelemetry(tele);
    }

    // All admission estimates flow through the estimator layer; the
    // default is the static LUT view of queued work.
    std::unique_ptr<LutEstimator> owned_estimator;
    const LatencyEstimator* admission_est = cfg.admissionEstimator;
    if (cfg.admission.enabled && admission_est == nullptr) {
        owned_estimator = std::make_unique<LutEstimator>(*cfg.lut);
        admission_est = owned_estimator.get();
    }

    std::unique_ptr<Calendar> calendar = makeCalendar(cfg.calendar);

    // Prime the lazy arrival pump: the first arrival enters the
    // calendar now, each later one when its predecessor pops.
    auto pushArrival = [&](Request* req) {
        panicIf(req->trace == nullptr || req->trace->layers.empty(),
                "runSimulation: request without a trace");
        SimEvent ev;
        ev.time = req->arrival;
        ev.kind = SimEventKind::Arrival;
        ev.req = req;
        calendar->push(ev);
    };
    if (Request* first = source.next())
        pushArrival(first);

    for (const NodeEvent& nev : cfg.nodeEvents) {
        fatalIf(nev.node < 0 ||
                    static_cast<size_t>(nev.node) >= nodes.size(),
                "runSimulation: node event for unknown node " +
                    std::to_string(nev.node) + " (fleet has " +
                    std::to_string(nodes.size()) + " nodes)");
        fatalIf(nev.time < 0.0,
                "runSimulation: node event before time zero");
        SimEvent ev;
        ev.time = nev.time;
        ev.kind = SimEventKind::NodeChange;
        ev.node = nev.node;
        ev.nodeEvent = nev.kind;
        calendar->push(ev);
    }

    // The stochastic fault pump: exactly one chaos NodeChange lives
    // in the calendar (the ArrivalSource contract), refilled when it
    // pops. Drawing from its own RNG stream keeps every workload
    // stream untouched — chaos off is bit-identical to the seed.
    bool chaos_dry = cfg.chaos == nullptr;
    double chaos_last = 0.0;
    auto pushChaos = [&]() {
        if (chaos_dry)
            return;
        NodeEvent nev;
        if (!cfg.chaos->next(nev)) {
            chaos_dry = true;
            return;
        }
        fatalIf(nev.node < 0 ||
                    static_cast<size_t>(nev.node) >= nodes.size(),
                "runSimulation: chaos event for an unknown node");
        fatalIf(nev.time < chaos_last,
                "runSimulation: chaos events must be emitted in "
                "non-decreasing time order");
        chaos_last = nev.time;
        SimEvent ev;
        ev.time = nev.time;
        ev.kind = SimEventKind::NodeChange;
        ev.node = nev.node;
        ev.nodeEvent = nev.kind;
        ev.chaos = true;
        calendar->push(ev);
    };
    if (cfg.chaos != nullptr) {
        cfg.chaos->reset(cfg.nodes, cfg.chaosSeed);
        pushChaos();
    }

    // Estimated queued work on a node in node-seconds: a fast node
    // absorbs the same queue sooner.
    auto delayOn = [&](const SimNode& node, const Request& req) {
        double work = 0.0;
        for (const Request* r : node.queue())
            work += admission_est->remaining(*r);
        return (work + admission_est->isolated(req)) /
               node.profile().speedFactor;
    };

    auto pushLayerEnd = [&](const SimNode& node, double end) {
        SimEvent ev;
        ev.time = end;
        ev.kind = SimEventKind::LayerComplete;
        ev.node = node.id();
        ev.epoch = node.epoch();
        calendar->push(ev);
    };

    // At most one pending BatchRelease per node. The hold window can
    // only move *later* (the oldest waiter sheds or starts), so an
    // in-flight release that fires early just re-evaluates the hold
    // and re-arms; no stale-event filtering is needed.
    std::vector<double> release_pending(nodes.size(), -1.0);
    auto pushBatchRelease = [&](const SimNode& node, double at) {
        size_t idx = static_cast<size_t>(node.id());
        if (release_pending[idx] >= 0.0)
            return;
        release_pending[idx] = at;
        SimEvent ev;
        ev.time = at;
        ev.kind = SimEventKind::BatchRelease;
        ev.node = node.id();
        calendar->push(ev);
    };

    size_t finished = 0;
    size_t shed_count = 0;
    bool decision_pending = false;

    auto pushDecision = [&](double now) {
        if (decision_pending)
            return;
        SimEvent decide;
        decide.time = now;
        decide.kind = SimEventKind::Decision;
        calendar->push(decide);
        decision_pending = true;
    };

    auto anyAvailable = [&]() {
        for (const auto& node : nodes) {
            if (node->available())
                return true;
        }
        return false;
    };

    // --- chaos-engine run state --------------------------------------
    // Availability bookkeeping (cheap; reported only when a
    // resilience mechanism is on).
    std::vector<double> down_since(nodes.size(), -1.0);
    double down_sec = 0.0;
    double repair_sec = 0.0;
    size_t repair_count = 0;
    size_t fail_count = 0;
    size_t timeout_count = 0;
    size_t retries_total = 0;
    size_t hedge_count = 0;
    size_t hedge_wins = 0;
    size_t brownout_sheds = 0;
    const size_t n_tiers = cfg.tierWeights.size();
    std::vector<double> tier_completed(n_tiers, 0.0);
    std::vector<double> tier_violations(n_tiers, 0.0);
    std::vector<double> tier_shed(n_tiers, 0.0);

    // Online tail-latency quantile seeding the hedge delay.
    P2Quantile hedge_lat(cfg.hedge.enabled ? cfg.hedge.quantile : 0.5);

    // Hedge clones never come from the arrival source: they live in
    // a loop-owned pool (deque for pointer stability) and recycle
    // through a free list when their hedge resolves.
    std::deque<Request> clone_pool;
    std::vector<Request*> free_clones;
    auto allocClone = [&]() -> Request* {
        if (!free_clones.empty()) {
            Request* c = free_clones.back();
            free_clones.pop_back();
            return c;
        }
        clone_pool.emplace_back();
        return &clone_pool.back();
    };
    auto dropClone = [&](Request* clone) {
        clone->hedgePeer = nullptr;
        free_clones.push_back(clone);
    };

    // Pull one copy of a request back from wherever it sits. A
    // running cancel bumps the node's epoch (pending layer-complete
    // goes stale), so the node needs a decision sweep to pick up
    // other work.
    auto cancelCopy = [&](Request* req, double now) {
        if (req->lastNode < 0)
            return;
        if (nodes[req->lastNode]->cancel(req, now) ==
            SimNode::CancelOutcome::Running)
            pushDecision(now);
    };

    auto accountCompleted = [&](const Request& req) {
        if (cfg.hedge.enabled)
            hedge_lat.add(req.finishTime - req.arrival);
        if (req.tier >= 0 && static_cast<size_t>(req.tier) < n_tiers) {
            tier_completed[req.tier] += 1.0;
            if (req.violated())
                tier_violations[req.tier] += 1.0;
        }
    };

    auto shedRequest = [&](Request* req, double now) {
        panicIf(req->isHedgeClone,
                "runSimulation: tried to shed a hedge clone");
        if (req->hedgePeer != nullptr) {
            Request* clone = req->hedgePeer;
            if (tele)
                tele->hedgeCancel(*clone, clone->lastNode, now);
            cancelCopy(clone, now);
            dropClone(clone);
            req->hedgePeer = nullptr;
        }
        ++req->cancelEpoch;
        req->shed = true;
        ++shed_count;
        if (req->tier >= 0 && static_cast<size_t>(req->tier) < n_tiers)
            tier_shed[req->tier] += 1.0;
        dispatcher.onShed(*req, now);
        if (tele)
            tele->shed(*req, now);
        if (sink)
            sink->recordShed(*req);
        source.retire(req, now);
    };

    // Place one request (fresh arrival, failure re-dispatch or
    // retry): dispatcher choice, then admission, then enqueue +
    // decision. Returns false when the request was shed instead.
    // Hedge clones never come through here — they are enqueued
    // directly by the Hedge handler, bypassing placement, admission
    // and dispatch telemetry.
    auto placeRequest = [&](Request* req, double now) -> bool {
        if (!anyAvailable()) {
            // The whole fleet is draining or down; nobody can take
            // new work, so the front door must drop it.
            shedRequest(req, now);
            return false;
        }
        size_t pick = dispatcher.selectNode(*req, nodes, now);
        panicIf(pick >= nodes.size(),
                "runSimulation: dispatcher returned invalid node");
        panicIf(!nodes[pick]->available(),
                "runSimulation: dispatcher placed a request on an "
                "unavailable node");

        if (cfg.admission.enabled) {
            // Brown-out: escalate the margin with the request's tier
            // so low-priority work sheds first as delay rises.
            double margin = cfg.admission.margin;
            if (cfg.brownout.enabled)
                margin *= 1.0 + cfg.brownout.step * req->tier;
            if (now + margin * delayOn(*nodes[pick], *req) >
                req->deadline) {
                // The chosen node cannot make the deadline: fall
                // back to the least-loaded available node before
                // shedding, so an admission-blind placement (e.g.
                // round-robin) doesn't drop requests the rest of the
                // fleet could still serve.
                size_t best = nodes.size();
                double best_delay = 0.0;
                for (size_t i = 0; i < nodes.size(); ++i) {
                    if (!nodes[i]->available())
                        continue;
                    double delay = delayOn(*nodes[i], *req);
                    if (best == nodes.size() || delay < best_delay) {
                        best = i;
                        best_delay = delay;
                    }
                }
                if (now + margin * best_delay > req->deadline) {
                    if (cfg.brownout.enabled) {
                        ++brownout_sheds;
                        if (tele)
                            tele->brownout(*req, now);
                    }
                    shedRequest(req, now);
                    return false;
                }
                pick = best;
            }
        }

        nodes[pick]->enqueue(req, now);
        if (tele)
            tele->dispatch(*req, static_cast<int>(pick),
                           nodes[pick]->outstanding(), now);
        // Arm hedged dispatch once the latency quantile is seeded:
        // if the request is still unfinished after the tail delay, a
        // duplicate goes to a second node. Stale events are filtered
        // by (rid, cancelEpoch).
        if (cfg.hedge.enabled && req->hedgePeer == nullptr &&
            hedge_lat.count() >=
                static_cast<size_t>(cfg.hedge.minSamples)) {
            SimEvent hev;
            hev.time = now + cfg.hedge.factor * hedge_lat.value();
            hev.kind = SimEventKind::Hedge;
            hev.req = req;
            hev.rid = req->id;
            hev.epoch = req->cancelEpoch;
            calendar->push(hev);
        }
        // Dispatch after every arrival of this instant has been
        // placed (admit-then-select): the Decision kind sorts
        // after all same-time arrivals and completions.
        pushDecision(now);
        return true;
    };

    // Per-attempt deadline allowance: retries re-arm with the
    // allowance scaled by backoff^attempts.
    auto pushTimeout = [&](Request* req, double at) {
        req->timeoutAt = at;
        SimEvent ev;
        ev.time = at;
        ev.kind = SimEventKind::Timeout;
        ev.req = req;
        ev.rid = req->id;
        ev.epoch = req->cancelEpoch;
        calendar->push(ev);
    };

    // Validate and apply the moves of a rebalancing dispatcher. The
    // Migration contract is enforced here (and in removeQueued), so
    // a buggy policy fails deterministically instead of corrupting
    // node state.
    auto applyRebalance = [&](double now) {
        if (!dispatcher.wantsRebalance())
            return false;
        std::vector<Migration> moves = dispatcher.rebalance(nodes, now);
        for (const Migration& m : moves) {
            panicIf(m.req == nullptr || m.from >= nodes.size() ||
                        m.to >= nodes.size() || m.from == m.to,
                    "runSimulation: malformed migration");
            panicIf(!nodes[m.to]->available(),
                    "runSimulation: migration onto an unavailable "
                    "node");
            nodes[m.from]->removeQueued(m.req, now);
            nodes[m.to]->enqueue(m.req, now);
            if (tele)
                tele->migrate(*m.req, static_cast<int>(m.from),
                              static_cast<int>(m.to),
                              nodes[m.from]->outstanding(),
                              nodes[m.to]->outstanding(), now);
        }
        return !moves.empty();
    };

    // Retire one completed logical request: resolve any hedge pair,
    // account it, give rebalancers a look, and hand the slot back to
    // the source. Shared verbatim by the scalar and batch completion
    // paths so batching cannot drift the retirement semantics.
    auto retireCompleted = [&](SimNode& node, Request* done,
                               double now) {
        // First completion of a hedged pair wins; the loser is
        // pulled back and only the primary is ever recorded/retired
        // as the logical request.
        Request* logical = done;
        if (done->isHedgeClone) {
            Request* prim = done->hedgePeer;
            panicIf(prim == nullptr,
                    "runSimulation: orphan hedge clone completed");
            ++hedge_wins;
            if (tele)
                tele->hedgeCancel(*prim, prim->lastNode, now);
            cancelCopy(prim, now);
            // The estimator layer keys per-request state by id
            // (shared by both copies), so completing the clone
            // retires the primary's entry too.
            dispatcher.onComplete(node, *done, now);
            prim->finishTime = done->finishTime;
            prim->executedTime = done->executedTime;
            prim->nextLayer = prim->layerCount();
            ++prim->cancelEpoch;
            prim->hedgePeer = nullptr;
            dropClone(done);
            logical = prim;
        } else {
            if (done->hedgePeer != nullptr) {
                Request* clone = done->hedgePeer;
                if (tele)
                    tele->hedgeCancel(*clone, clone->lastNode, now);
                cancelCopy(clone, now);
                dropClone(clone);
                done->hedgePeer = nullptr;
            }
            ++done->cancelEpoch;
            dispatcher.onComplete(node, *done, now);
        }
        accountCompleted(*logical);
        ++finished;
        // A completion is a load-balance change worth a migration
        // look; idle nodes that receive stolen work are started by
        // the pushed decision sweep.
        if (applyRebalance(now))
            pushDecision(now);
        if (sink)
            sink->recordCompleted(*logical);
        // All callbacks are past; the source may recycle the slot
        // (no node holds a reference: completion cleared
        // running/lastRun and the ready queue).
        source.retire(logical, now);
    };

    const size_t total = source.total();
    double sim_now = 0.0;

    while (finished + shed_count < total) {
        panicIf(calendar->empty(),
                "runSimulation: empty calendar with unfinished "
                "requests");
        SimEvent ev = calendar->pop();
        double now = ev.time;
        sim_now = now;
        ++result.eventsProcessed;

        switch (ev.kind) {
          case SimEventKind::Arrival: {
            // Refill the pump before handling this arrival, so a
            // same-time successor is in the calendar (and wins the
            // kind tie-break) exactly as if pushed up front.
            if (Request* next = source.next())
                pushArrival(next);
            Request* req = ev.req;
            if (resilience_on) {
                // Chaos state must be pristine whatever the source's
                // recycling did (cancelEpoch stays monotonic per
                // slot: any stale event from a prior tenant also
                // fails the rid check).
                req->tier = n_tiers == 0
                                ? 0
                                : tierOfRequest(req->id,
                                                cfg.tierWeights,
                                                cfg.chaosSeed);
                req->attempts = 0;
                req->timeoutAt = -1.0;
                req->hedgePeer = nullptr;
                req->isHedgeClone = false;
            }
            if (tele)
                tele->arrival(*req, now);
            bool placed = placeRequest(req, now);
            if (placed && cfg.retry.enabled) {
                double window = req->deadline - req->arrival;
                if (window > 0.0)
                    pushTimeout(req,
                                req->arrival +
                                    cfg.retry.timeoutFactor * window);
            }
            break;
          }

          case SimEventKind::NodeChange: {
            // Refill the fault pump before handling, mirroring the
            // arrival pump: a same-time successor is in the calendar
            // exactly as if pushed up front.
            if (ev.chaos)
                pushChaos();
            SimNode& node = *nodes[ev.node];
            // Emitted before the displaced work is re-placed, so the
            // fail instant precedes its restarts/dispatches in the
            // event log.
            if (tele)
                tele->nodeChange(ev.node, ev.nodeEvent, now);
            switch (ev.nodeEvent) {
              case NodeEventKind::Drain:
                node.drain();
                break;
              case NodeEventKind::Fail: {
                // A fail on an already-Down node (chaos composing
                // with scripted events) is a no-op: no new down
                // spell, no displaced work.
                bool was_down = node.state() == NodeState::Down;
                const Request* inflight = node.current();
                std::vector<Request*> displaced = node.fail(now);
                if (!was_down) {
                    ++fail_count;
                    down_since[ev.node] = now;
                }
                // Hedge clones dissolve in place: the primary (on
                // another node, or co-displaced below) is the
                // logical request and simply loses its duplicate.
                for (Request* req : displaced) {
                    if (!req->isHedgeClone)
                        continue;
                    if (req->hedgePeer != nullptr)
                        req->hedgePeer->hedgePeer = nullptr;
                    if (tele)
                        tele->hedgeCancel(*req, ev.node, now);
                    dropClone(req);
                }
                for (Request* req : displaced) {
                    if (req->isHedgeClone)
                        continue;
                    if (req->hedgePeer != nullptr) {
                        // Displaced primary with a live clone
                        // elsewhere: dissolve the hedge before the
                        // primary goes through the normal
                        // restart/shed path.
                        Request* clone = req->hedgePeer;
                        if (tele)
                            tele->hedgeCancel(*clone, clone->lastNode,
                                              now);
                        cancelCopy(clone, now);
                        dropClone(clone);
                        req->hedgePeer = nullptr;
                    }
                    bool started =
                        req == inflight || req->nextLayer > 0;
                    if (started &&
                        cfg.onFailure == RestartPolicy::Shed) {
                        shedRequest(req, now);
                        continue;
                    }
                    if (started) {
                        // Activations died with the node: restart
                        // from layer 0 (enqueue re-zeroes the rest).
                        req->nextLayer = 0;
                        req->executedTime = 0.0;
                        if (tele)
                            tele->restartFromFailure(*req, ev.node,
                                                     now);
                    }
                    placeRequest(req, now);
                }
                break;
              }
              case NodeEventKind::Recover:
                // Close the down spell (a recover of a never-failed
                // or merely draining node has none to close).
                if (down_since[ev.node] >= 0.0) {
                    double spell = now - down_since[ev.node];
                    down_sec += spell;
                    repair_sec += spell;
                    ++repair_count;
                    down_since[ev.node] = -1.0;
                }
                node.recover();
                // Give rebalancing dispatchers (and any queued work
                // the recovery logically unblocks) a same-instant
                // decision sweep.
                pushDecision(now);
                break;
            }
            break;
          }

          case SimEventKind::Decision: {
            decision_pending = false;
            applyRebalance(now);
            for (auto& node : nodes) {
                if (node->state() == NodeState::Down ||
                    node->busy() || node->outstanding() == 0)
                    continue;
                if (batch_on) {
                    // Hold for more batchable work while the delay
                    // window allows; the armed BatchRelease starts
                    // the batch when it expires.
                    double release_at = 0.0;
                    if (node->batchShouldHold(now, &release_at)) {
                        pushBatchRelease(*node, release_at);
                        continue;
                    }
                    pushLayerEnd(*node, node->beginBatch(now));
                    continue;
                }
                pushLayerEnd(*node, node->beginBlock(now));
            }
            break;
          }

          case SimEventKind::LayerComplete: {
            SimNode& node = *nodes[ev.node];
            if (ev.epoch != node.epoch()) {
                // The layer this event announced was abandoned by a
                // node failure after it was scheduled; nothing to do.
                break;
            }

            if (batch_on) {
                // One batch step ends: every member advanced its own
                // next layer over the shared step window.
                const Request* anchor = node.current();
                if (cfg.recordEvents) {
                    double lat = node.batchStepLatency();
                    for (const Request* m : node.activeBatch())
                        result.events.push_back({node.id(), m->id,
                                                 m->nextLayer,
                                                 now - lat, now});
                }
                std::vector<Request*> completed =
                    node.completeBatchStep();
                // The anchor drives the sparsity feedback, exactly
                // as in the scalar path.
                dispatcher.onLayerComplete(
                    node, *anchor, now,
                    node.lastMonitoredSparsity());
                for (Request* done : completed)
                    retireCompleted(node, done, now);

                if (node.blockContinues()) {
                    // Continuous batching: newly-queued work may join
                    // the running batch at this layer boundary.
                    node.batchJoin(now);
                    pushLayerEnd(node, node.continueBatchStep(now));
                } else if (node.outstanding() > 0) {
                    double release_at = 0.0;
                    if (node.batchShouldHold(now, &release_at))
                        pushBatchRelease(node, release_at);
                    else
                        pushLayerEnd(node, node.beginBatch(now));
                }
                break;
            }

            const Request* req = node.current();
            size_t layer_idx = req->nextLayer;

            if (cfg.recordEvents) {
                double lat = node.layerLatency(
                    req->trace->layers[layer_idx]);
                result.events.push_back({node.id(), req->id,
                                         layer_idx, now - lat, now});
            }

            Request* done = node.completeLayer();
            dispatcher.onLayerComplete(node, *req, now,
                                       node.lastMonitoredSparsity());
            if (done != nullptr)
                retireCompleted(node, done, now);

            // Continue the non-preemptible block, or make a fresh
            // dispatch decision at the block boundary.
            if (node.blockContinues())
                pushLayerEnd(node, node.continueBlock(now));
            else if (node.outstanding() > 0)
                pushLayerEnd(node, node.beginBlock(now));
            break;
          }

          case SimEventKind::Timeout: {
            Request* req = ev.req;
            // Stale when the attempt it was armed for is gone:
            // completed, shed, already retried — or the arena slot
            // was recycled entirely (rid mismatch).
            if (ev.rid != req->id || ev.epoch != req->cancelEpoch)
                break;
            ++timeout_count;
            if (tele)
                tele->timeout(*req, req->lastNode, req->attempts,
                              now);
            // The attempt overran its allowance: pull back both
            // copies (a timeout dissolves any hedge) and retry from
            // scratch while per-request attempts and the fleet-wide
            // retry budget allow, else shed.
            if (req->hedgePeer != nullptr) {
                Request* clone = req->hedgePeer;
                if (tele)
                    tele->hedgeCancel(*clone, clone->lastNode, now);
                cancelCopy(clone, now);
                dropClone(clone);
                req->hedgePeer = nullptr;
            }
            cancelCopy(req, now);
            dispatcher.onCancel(*req, now);
            ++req->cancelEpoch;
            bool budget_ok =
                static_cast<double>(retries_total) <
                cfg.retry.budget * static_cast<double>(total);
            if (req->attempts < cfg.retry.maxRetries && budget_ok) {
                ++req->attempts;
                ++retries_total;
                if (tele)
                    tele->retry(*req, req->attempts, now);
                if (placeRequest(req, now)) {
                    double window = req->deadline - req->arrival;
                    double allowance =
                        cfg.retry.timeoutFactor * window *
                        std::pow(cfg.retry.backoff, req->attempts);
                    pushTimeout(req, now + allowance);
                }
            } else {
                shedRequest(req, now);
            }
            break;
          }

          case SimEventKind::Hedge: {
            Request* req = ev.req;
            if (ev.rid != req->id || ev.epoch != req->cancelEpoch)
                break;
            if (req->hedgePeer != nullptr || req->lastNode < 0)
                break; // already hedged / not currently placed
            // Duplicate onto the least-outstanding available node
            // other than the primary's (ties to the lowest id); no
            // such node means no hedge this round.
            size_t best = nodes.size();
            for (size_t i = 0; i < nodes.size(); ++i) {
                if (!nodes[i]->available() ||
                    static_cast<int>(i) == req->lastNode)
                    continue;
                if (best == nodes.size() ||
                    nodes[i]->outstanding() <
                        nodes[best]->outstanding())
                    best = i;
            }
            if (best == nodes.size())
                break;
            Request* clone = allocClone();
            *clone = *req;
            clone->isHedgeClone = true;
            clone->hedgePeer = req;
            clone->lastNode = -1;
            req->hedgePeer = clone;
            ++hedge_count;
            nodes[best]->enqueue(clone, now);
            if (tele)
                tele->hedge(*req, static_cast<int>(best), now);
            pushDecision(now);
            break;
          }

          case SimEventKind::BatchRelease: {
            SimNode& node = *nodes[ev.node];
            release_pending[static_cast<size_t>(ev.node)] = -1.0;
            if (node.state() == NodeState::Down || node.busy() ||
                node.outstanding() == 0)
                break; // the work started (or vanished) another way
            double release_at = 0.0;
            if (node.batchShouldHold(now, &release_at))
                pushBatchRelease(node, release_at); // window moved
            else
                pushLayerEnd(node, node.beginBatch(now));
            break;
          }
        }
    }

    result.perNodeCompleted.reserve(nodes.size());
    for (const auto& n : nodes) {
        result.perNodeCompleted.push_back(n->completedCount());
        result.preemptions += n->preemptionCount();
        result.decisions += n->decisionCount();
    }

    if (batch_on) {
        BatchStats& bs = result.metrics.batching;
        bs.active = true;
        size_t formed = 0, joins = 0, steps = 0, member_steps = 0;
        size_t fill_count = 0;
        double fill_wait = 0.0;
        for (const auto& n : nodes) {
            const SimNode::BatchCounters& c = n->batchCounters();
            formed += c.formed;
            joins += c.joins;
            steps += c.steps;
            member_steps += c.memberSteps;
            fill_wait += c.fillWaitSec;
            fill_count += c.fillWaitCount;
            bs.stragglerTaxSec += c.stragglerTaxSec;
        }
        bs.formed = static_cast<double>(formed);
        bs.joins = static_cast<double>(joins);
        bs.steps = static_cast<double>(steps);
        bs.meanOccupancy =
            steps > 0 ? static_cast<double>(member_steps) /
                            static_cast<double>(steps)
                      : 0.0;
        bs.meanFillWaitSec =
            fill_count > 0
                ? fill_wait / static_cast<double>(fill_count)
                : 0.0;
    }

    if (resilience_on) {
        ResilienceStats& rs = result.metrics.resilience;
        rs.active = true;
        // Down spells still open when the last request retired count
        // against availability but not as closed repairs.
        for (size_t i = 0; i < nodes.size(); ++i) {
            if (down_since[i] >= 0.0)
                down_sec += sim_now - down_since[i];
        }
        double horizon =
            static_cast<double>(nodes.size()) * sim_now;
        rs.availability =
            horizon > 0.0 ? 1.0 - down_sec / horizon : 1.0;
        rs.mttr = repair_count > 0
                      ? repair_sec / static_cast<double>(repair_count)
                      : 0.0;
        rs.failures = static_cast<double>(fail_count);
        rs.timeouts = static_cast<double>(timeout_count);
        rs.retries = static_cast<double>(retries_total);
        rs.retryAmplification =
            total > 0 ? (static_cast<double>(total) +
                         static_cast<double>(retries_total)) /
                            static_cast<double>(total)
                      : 1.0;
        rs.hedges = static_cast<double>(hedge_count);
        rs.hedgeWins = static_cast<double>(hedge_wins);
        rs.hedgeWinRate =
            hedge_count > 0 ? static_cast<double>(hedge_wins) /
                                  static_cast<double>(hedge_count)
                            : 0.0;
        rs.brownoutSheds = static_cast<double>(brownout_sheds);
        rs.tiers.resize(n_tiers);
        for (size_t t = 0; t < n_tiers; ++t) {
            rs.tiers[t].completed = tier_completed[t];
            rs.tiers[t].violations = tier_violations[t];
            rs.tiers[t].shed = tier_shed[t];
            // goodput needs the makespan: finalizeMetrics fills it
            // in after the overload's metrics aggregation.
        }
    }

    if (tele)
        tele->endRun(sim_now);
    return result;
}

/**
 * Install an overload's aggregated `metrics` in `result`, keeping the
 * resilience and batching stats the loop wrote there (the aggregation
 * knows neither), the telemetry probes' accuracy, and the
 * makespan-dependent per-tier goodput.
 */
void
finalizeMetrics(SimResult& result, Metrics metrics, const SimConfig& cfg)
{
    metrics.resilience = std::move(result.metrics.resilience);
    metrics.batching = result.metrics.batching;
    if (cfg.telemetry)
        metrics.estimators = cfg.telemetry->accuracy();
    for (TierStats& t : metrics.resilience.tiers) {
        t.goodput = metrics.makespan > 0.0
                        ? (t.completed - t.violations) / metrics.makespan
                        : 0.0;
    }
    result.metrics = std::move(metrics);
}

} // namespace

SimConfig
homogeneousCluster(size_t n)
{
    SimConfig cfg;
    for (size_t i = 0; i < n; ++i)
        cfg.nodes.push_back(
            referenceNodeProfile("node" + std::to_string(i)));
    return cfg;
}

SimResult
runSimulation(const SimConfig& cfg, std::vector<Request>& requests,
              Dispatcher& dispatcher, const PolicyFactory& make_policy)
{
    for (auto& req : requests) {
        panicIf(req.trace == nullptr || req.trace->layers.empty(),
                "runSimulation: request without a trace");
        req.nextLayer = 0;
        req.executedTime = 0.0;
        req.lastRunEnd = req.arrival;
        req.finishTime = -1.0;
        req.shed = false;
        req.tier = 0;
        req.attempts = 0;
        req.timeoutAt = -1.0;
        req.cancelEpoch = 0;
        req.hedgePeer = nullptr;
        req.isHedgeClone = false;
        req.lastNode = -1;
        req.nodeEnqueueTime = 0.0;
    }

    MaterializedSource source(requests);
    SimResult result = runSimulationLoop(cfg, source, dispatcher,
                                         make_policy, nullptr);
    // The vector survives the run, so metrics come from the same
    // full-vector aggregation as always (bit-identical to the seed).
    finalizeMetrics(result, computeMetricsCompleted(requests), cfg);
    return result;
}

SimResult
runSimulation(const SimConfig& cfg, ArrivalSource& source,
              Dispatcher& dispatcher, const PolicyFactory& make_policy)
{
    StreamingMetrics sink(cfg.metricsKind);
    SimResult result = runSimulationLoop(cfg, source, dispatcher,
                                         make_policy, &sink);
    finalizeMetrics(result, sink.finalize(), cfg);
    return result;
}

} // namespace dysta
