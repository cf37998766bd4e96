#include "sim/core.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
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
 * schedule bit for bit. Retired requests are recorded in `sink`
 * and then handed back to the source.
 *
 * A node's next step whose LayerComplete would be the very next pop
 * never enters the calendar: the LayerComplete case runs it in place
 * (EventQueue::popsNext / skipPush) and still counts it as an event,
 * so pop order, seq numbers and eventsProcessed are as if pushed.
 */
SimResult
runSimulationLoop(const SimConfig& cfg, ArrivalSource& source,
                  Dispatcher& dispatcher,
                  const PolicyFactory& make_policy,
                  StreamingMetrics& sink)
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
        nodes.back()->setBatching(cfg.batching);
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

    EventQueue calendar;

    // Dense run slots (Request::slot) index every scheduler's and
    // estimator's per-request state. A request holds one from the
    // moment its arrival is pumped until just before the source
    // retires it; the LIFO free list keeps the slot range as small
    // as the peak number of live requests.
    std::vector<int> free_slots;
    int slots_made = 0;
    auto releaseSlot = [&](const Request* req) {
        free_slots.push_back(req->slot);
    };

    // Prime the lazy arrival pump: the first arrival enters the
    // calendar now, each later one when its predecessor pops. Every
    // request starts its run here from pristine run state, whatever
    // the source did with it before (a re-run vector, a recycled
    // arena slot).
    const size_t n_tiers = cfg.tierWeights.size();
    auto pushArrival = [&](Request* req) {
        panicIf(req->trace == nullptr || req->trace->layers.empty(),
                "runSimulation: request without a trace");
        req->nextLayer = 0;
        req->executedTime = 0.0;
        req->lastRunEnd = req->arrival;
        req->finishTime = -1.0;
        req->shed = false;
        req->tier = n_tiers == 0 ? 0
                                 : tierOfRequest(req->id, cfg.tierWeights,
                                                 cfg.chaosSeed);
        req->attempts = 0;
        req->timeoutAt = -1.0;
        req->cancelEpoch = 0;
        req->hedgePeer = nullptr;
        req->isHedgeClone = false;
        req->lastNode = -1;
        req->nodeEnqueueTime = 0.0;
        if (free_slots.empty()) {
            req->slot = slots_made++;
        } else {
            req->slot = free_slots.back();
            free_slots.pop_back();
        }
        SimEvent ev;
        ev.time = req->arrival;
        ev.kind = SimEventKind::Arrival;
        ev.req = req;
        calendar.push(ev);
    };
    if (Request* first = source.next())
        pushArrival(first);

    auto pushNodeChange = [&](const NodeEvent& nev, bool chaos) {
        if (nev.node < 0 || static_cast<size_t>(nev.node) >= nodes.size())
            fatal(std::string("runSimulation: ") +
                  (chaos ? "chaos" : "node") + " event for unknown node " +
                  std::to_string(nev.node) + " (fleet has " +
                  std::to_string(nodes.size()) + " nodes)");
        SimEvent ev;
        ev.time = nev.time;
        ev.kind = SimEventKind::NodeChange;
        ev.node = nev.node;
        ev.nodeEvent = nev.kind;
        ev.chaos = chaos;
        calendar.push(ev);
    };
    for (const NodeEvent& nev : cfg.nodeEvents) {
        fatalIf(nev.time < 0.0,
                "runSimulation: node event before time zero");
        pushNodeChange(nev, false);
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
        fatalIf(nev.time < chaos_last,
                "runSimulation: chaos events must be emitted in "
                "non-decreasing time order");
        chaos_last = nev.time;
        pushNodeChange(nev, true);
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

    auto layerEnd = [](const SimNode& node, double end) {
        SimEvent ev;
        ev.time = end;
        ev.kind = SimEventKind::LayerComplete;
        ev.node = node.id();
        ev.epoch = node.epoch();
        return ev;
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
        calendar.push(ev);
    };

    // Start a step on an idle node with queued work and return its
    // end, unless its batcher holds for a fuller batch: the armed
    // BatchRelease re-evaluates the hold when the fill window
    // expires. The one start path of Decision, BatchRelease and
    // LayerComplete.
    auto startOrHold = [&](SimNode& node,
                           double now) -> std::optional<double> {
        if (node.state() == NodeState::Down || node.busy() ||
            node.outstanding() == 0)
            return std::nullopt;
        double release_at = 0.0;
        if (node.batchShouldHold(now, &release_at)) {
            pushBatchRelease(node, release_at);
            return std::nullopt;
        }
        return node.beginStep(now);
    };
    auto pushStart = [&](SimNode& node, double now) {
        if (std::optional<double> end = startOrHold(node, now))
            calendar.push(layerEnd(node, *end));
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
        calendar.push(decide);
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
    // Counted straight into the stats that report them (cheap;
    // reported only when a resilience mechanism is on).
    ResilienceStats rs;
    rs.tiers.resize(n_tiers);
    std::vector<double> down_since(nodes.size(), -1.0);
    double down_sec = 0.0;
    double repair_sec = 0.0;
    size_t repair_count = 0;

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
        if (clone->hedgePeer != nullptr)
            clone->hedgePeer->hedgePeer = nullptr;
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

    // Pull back the losing copy of a hedge. `node` is where it lost,
    // for telemetry: a failed node has already dropped it.
    auto pullBackLoser = [&](Request* loser, int node, double now) {
        if (tele)
            tele->hedgeCancel(*loser, node, now);
        cancelCopy(loser, now);
    };

    // Dissolve a primary's live hedge: its clone is pulled back
    // wherever it sits and recycled.
    auto dissolveHedge = [&](Request* primary, double now) {
        if (Request* clone = primary->hedgePeer) {
            pullBackLoser(clone, clone->lastNode, now);
            dropClone(clone);
        }
    };

    auto accountCompleted = [&](const Request& req) {
        if (cfg.hedge.enabled)
            hedge_lat.add(req.finishTime - req.arrival);
        if (req.tier >= 0 && static_cast<size_t>(req.tier) < n_tiers) {
            rs.tiers[req.tier].completed += 1.0;
            if (req.violated())
                rs.tiers[req.tier].violations += 1.0;
        }
    };

    auto shedRequest = [&](Request* req, double now) {
        panicIf(req->isHedgeClone,
                "runSimulation: tried to shed a hedge clone");
        dissolveHedge(req, now);
        ++req->cancelEpoch;
        req->shed = true;
        ++shed_count;
        if (req->tier >= 0 && static_cast<size_t>(req->tier) < n_tiers)
            rs.tiers[req->tier].shed += 1.0;
        dispatcher.onShed(*req, now);
        if (tele)
            tele->shed(*req, now);
        sink.recordShed(*req);
        releaseSlot(req);
        source.retire(req, now);
    };

    // Timeout and Hedge events carry the request's id and
    // cancelEpoch at push time: a mismatch at pop marks them stale.
    auto pushRequestEvent = [&](SimEventKind kind, Request* req,
                                double at) {
        SimEvent ev;
        ev.time = at;
        ev.kind = kind;
        ev.req = req;
        ev.rid = req->id;
        ev.epoch = req->cancelEpoch;
        calendar.push(ev);
    };

    // Per-attempt deadline allowance: each retry re-arms with the
    // allowance scaled by backoff^attempts (exactly 1 on arrival).
    auto armTimeout = [&](Request* req, double now) {
        double window = req->deadline - req->arrival;
        if (!cfg.retry.enabled || !(window > 0.0))
            return;
        req->timeoutAt = now + cfg.retry.timeoutFactor * window *
                                   std::pow(cfg.retry.backoff,
                                            req->attempts);
        pushRequestEvent(SimEventKind::Timeout, req, req->timeoutAt);
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
                        ++rs.brownoutSheds;
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
        // duplicate goes to a second node.
        if (cfg.hedge.enabled && req->hedgePeer == nullptr &&
            hedge_lat.count() >=
                static_cast<size_t>(cfg.hedge.minSamples))
            pushRequestEvent(SimEventKind::Hedge, req,
                             now + cfg.hedge.factor * hedge_lat.value());
        // Dispatch after every arrival of this instant has been
        // placed (admit-then-select): the Decision kind sorts
        // after all same-time arrivals and completions.
        pushDecision(now);
        return true;
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
    // account it, give rebalancers a look, and hand the request back
    // to the source. Kept out of line: completions are rare next to
    // layer boundaries, and this body inlined into the step path
    // slows every event.
    auto retireCompleted = [&](SimNode& node, Request* done,
                               double now) __attribute__((noinline)) {
        // First completion of a hedged pair wins; the loser is
        // pulled back and only the primary is ever recorded/retired
        // as the logical request.
        Request* logical = done;
        if (done->isHedgeClone) {
            Request* prim = done->hedgePeer;
            panicIf(prim == nullptr,
                    "runSimulation: orphan hedge clone completed");
            ++rs.hedgeWins;
            pullBackLoser(prim, prim->lastNode, now);
            // Both copies share one id and run slot, so completing
            // the clone retires the primary's estimator state too.
            dispatcher.onComplete(node, *done, now);
            prim->finishTime = done->finishTime;
            prim->executedTime = done->executedTime;
            prim->nextLayer = prim->layerCount();
            ++prim->cancelEpoch;
            dropClone(done);
            logical = prim;
        } else {
            dissolveHedge(done, now);
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
        sink.recordCompleted(*logical);
        // All callbacks are past; the source may recycle the request
        // and the loop its run slot (no node holds a reference:
        // completion cleared running/lastRun and the ready queue).
        releaseSlot(logical);
        source.retire(logical, now);
    };

    const size_t total = source.total();
    double sim_now = 0.0;

    while (finished + shed_count < total) {
        panicIf(calendar.empty(),
                "runSimulation: empty calendar with unfinished "
                "requests");
        SimEvent ev = calendar.pop();
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
            if (tele)
                tele->arrival(*req, now);
            if (placeRequest(req, now))
                armTimeout(req, now);
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
                    ++rs.failures;
                    down_since[ev.node] = now;
                }
                // Hedge clones dissolve in place: the primary (on
                // another node, or co-displaced below) is the
                // logical request and simply loses its duplicate.
                for (Request* req : displaced) {
                    if (!req->isHedgeClone)
                        continue;
                    pullBackLoser(req, ev.node, now);
                    dropClone(req);
                }
                for (Request* req : displaced) {
                    if (req->isHedgeClone)
                        continue;
                    // A live clone elsewhere dissolves before the
                    // primary goes through the normal restart/shed
                    // path.
                    dissolveHedge(req, now);
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
            for (auto& node : nodes)
                pushStart(*node, now);
            break;
          }

          case SimEventKind::LayerComplete: {
            SimNode& node = *nodes[ev.node];
            if (ev.epoch != node.epoch()) {
                // The step this event announced was abandoned by a
                // node failure after it was scheduled; nothing to do.
                break;
            }

            // Each pass ends one step and starts the node's next. A
            // successor that would be the calendar's next pop runs in
            // place on the next pass instead of being pushed: nothing
            // can happen between that push and its pop, so the run
            // is event for event the same.
            for (;;) {
                // One step ends: every member advanced its own next
                // layer over the shared step window.
                const Request* anchor = node.current();
                const std::vector<Request*>& completed =
                    node.completeStep();
                // The anchor drives the sparsity feedback.
                dispatcher.onLayerComplete(node, *anchor, now,
                                           node.lastMonitoredSparsity());
                for (Request* done : completed)
                    retireCompleted(node, done, now);

                // Continue the non-preemptible block, or make a fresh
                // dispatch decision at the block boundary.
                std::optional<double> end =
                    node.blockContinues()
                        ? std::optional<double>(node.continueStep(now))
                        : startOrHold(node, now);
                if (!end)
                    break;
                SimEvent next = layerEnd(node, *end);
                if (finished + shed_count >= total ||
                    !calendar.popsNext(next)) {
                    calendar.push(next);
                    break;
                }
                calendar.skipPush();
                now = *end;
                sim_now = now;
                ++result.eventsProcessed;
            }
            break;
          }

          case SimEventKind::Timeout: {
            Request* req = ev.req;
            // Stale when the attempt it was armed for is gone:
            // completed, shed, already retried — or the arena slot
            // was recycled entirely (rid mismatch).
            if (ev.rid != req->id || ev.epoch != req->cancelEpoch)
                break;
            ++rs.timeouts;
            if (tele)
                tele->timeout(*req, req->lastNode, req->attempts,
                              now);
            // The attempt overran its allowance: pull back both
            // copies (a timeout dissolves any hedge) and retry from
            // scratch while per-request attempts and the fleet-wide
            // retry budget allow, else shed.
            dissolveHedge(req, now);
            cancelCopy(req, now);
            dispatcher.onCancel(*req, now);
            ++req->cancelEpoch;
            bool budget_ok =
                rs.retries < cfg.retry.budget * static_cast<double>(total);
            if (req->attempts < cfg.retry.maxRetries && budget_ok) {
                ++req->attempts;
                ++rs.retries;
                if (tele)
                    tele->retry(*req, req->attempts, now);
                if (placeRequest(req, now))
                    armTimeout(req, now);
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
            ++rs.hedges;
            nodes[best]->enqueue(clone, now);
            if (tele)
                tele->hedge(*req, static_cast<int>(best), now);
            pushDecision(now);
            break;
          }

          case SimEventKind::BatchRelease: {
            SimNode& node = *nodes[ev.node];
            release_pending[static_cast<size_t>(ev.node)] = -1.0;
            // A no-op when the work started (or vanished) another
            // way; re-arms when the window moved.
            pushStart(node, now);
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
        // Integer counts sum exactly in doubles.
        BatchStats& bs = result.metrics.batching;
        bs.active = true;
        double member_steps = 0.0, fill_wait = 0.0, fill_count = 0.0;
        for (const auto& n : nodes) {
            const SimNode::BatchCounters& c = n->batchCounters();
            bs.formed += static_cast<double>(c.formed);
            bs.joins += static_cast<double>(c.joins);
            bs.steps += static_cast<double>(c.steps);
            member_steps += static_cast<double>(c.memberSteps);
            fill_wait += c.fillWaitSec;
            fill_count += static_cast<double>(c.fillWaitCount);
            bs.stragglerTaxSec += c.stragglerTaxSec;
        }
        bs.meanOccupancy = bs.steps > 0.0 ? member_steps / bs.steps : 0.0;
        bs.meanFillWaitSec =
            fill_count > 0.0 ? fill_wait / fill_count : 0.0;
    }

    if (resilience_on) {
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
        rs.retryAmplification =
            total > 0 ? (static_cast<double>(total) + rs.retries) /
                            static_cast<double>(total)
                      : 1.0;
        rs.hedgeWinRate = rs.hedges > 0.0 ? rs.hedgeWins / rs.hedges : 0.0;
        // Per-tier goodput needs the makespan: runSimulation fills it
        // in after the metrics aggregation.
        result.metrics.resilience = std::move(rs);
    }

    if (tele)
        tele->endRun(sim_now);
    return result;
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
    MaterializedSource source(requests);
    return runSimulation(cfg, source, dispatcher, make_policy);
}

SimResult
runSimulation(const SimConfig& cfg, ArrivalSource& source,
              Dispatcher& dispatcher, const PolicyFactory& make_policy)
{
    StreamingMetrics sink(cfg.metricsKind, source.total());
    SimResult result =
        runSimulationLoop(cfg, source, dispatcher, make_policy, sink);
    // The aggregation knows neither the resilience and batching
    // stats the loop wrote nor the probes' accuracy; per-tier
    // goodput needs the aggregated makespan.
    Metrics metrics = sink.finalize();
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
    return result;
}

} // namespace dysta
