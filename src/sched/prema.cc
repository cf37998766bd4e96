#include "sched/prema.hh"

#include <algorithm>

#include "util/logging.hh"

namespace dysta {

void
PremaScheduler::reset()
{
    Scheduler::reset();
    order.clear();
    position.clear();
    nextSeq = 0;
}

PremaScheduler::Entry&
PremaScheduler::entryOf(const Request& req)
{
    size_t* idx = position.find(req);
    panicIf(idx == nullptr, "PREMA: unknown request");
    return order[*idx];
}

double
PremaScheduler::tokenOf(const Entry& e, double now) const
{
    // Token = priority x normalized waiting time (estimated
    // slowdown). Waiting excludes execution time, so a running
    // task's token freezes while it holds the accelerator.
    double waited = std::max(
        0.0, now - e.req->arrival - e.req->executedTime);
    return e.priority * waited / e.isol;
}

void
PremaScheduler::onArrival(const Request& req, double now)
{
    Scheduler::onArrival(req, now);
    panicIf(position.contains(req), "PREMA: duplicate request id");
    Entry e;
    e.req = &req;
    e.isol = std::max(est->isolated(req), 1e-12);
    e.remaining = est->remaining(req);
    e.seq = nextSeq++;
    position.emplace(req, order.size());
    order.push_back(e);
}

void
PremaScheduler::onLayerComplete(const Request& req, double now,
                                double monitored_sparsity)
{
    Scheduler::onLayerComplete(req, now, monitored_sparsity);
    // Lazy re-key: only the progressed request's remainder changed.
    if (const size_t* idx = position.find(req))
        order[*idx].remaining = est->remaining(req);
}

void
PremaScheduler::onComplete(const Request& req, double now)
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
}

size_t
PremaScheduler::selectNext(const std::vector<const Request*>& ready,
                           double now)
{
    double max_token = 0.0;
    for (const Request* req : ready)
        max_token = std::max(max_token, tokenOf(entryOf(*req), now));

    // Candidates: tokens at (>=) the threshold; SJF among them. The
    // degrading-threshold mechanism of the PREMA paper admits every
    // task whose tokens reached a fraction of the current maximum,
    // so the pool is wider than the single argmax and the policy
    // stays SJF-like while still aging long waiters in.
    const double threshold = 0.5 * max_token;
    size_t best = ready.size();
    double best_remaining = 0.0;
    for (size_t i = 0; i < ready.size(); ++i) {
        if (tokenOf(entryOf(*ready[i]), now) < threshold)
            continue;
        // Fresh estimate (not the cache): the reference path must
        // be exact even for direct calls outside the engine.
        double remaining = est->remaining(*ready[i]);
        if (best == ready.size() || remaining < best_remaining) {
            best = i;
            best_remaining = remaining;
        }
    }
    panicIf(best == ready.size(), "PREMA: empty candidate set");
    return best;
}

Request*
PremaScheduler::pickNext(const std::vector<Request*>& ready, double now)
{
    panicIf(order.size() != ready.size(),
            "PremaScheduler: ready queue out of sync with engine "
            "(missing onArrival/onComplete callbacks?)");

    // Two tight passes over the dense cache — identical decisions to
    // selectNext, but no per-candidate hash or LUT lookups.
    double max_token = 0.0;
    for (const Entry& e : order)
        max_token = std::max(max_token, tokenOf(e, now));

    const double threshold = 0.5 * max_token;
    const Entry* best = nullptr;
    for (const Entry& e : order) {
        if (tokenOf(e, now) < threshold)
            continue;
        if (best == nullptr || e.remaining < best->remaining ||
            (e.remaining == best->remaining && e.seq < best->seq)) {
            best = &e;
        }
    }
    panicIf(best == nullptr, "PREMA: empty candidate set");
    return const_cast<Request*>(best->req);
}

} // namespace dysta
