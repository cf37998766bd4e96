#include "sched/sjf.hh"

#include "util/logging.hh"

namespace dysta {

void
SjfScheduler::reset()
{
    Scheduler::reset();
    queue.clear();
    nextSeq = 0;
}

void
SjfScheduler::onArrival(const Request& req, double now)
{
    Scheduler::onArrival(req, now);
    queue.push(&req, {est->remaining(req), nextSeq++});
}

void
SjfScheduler::onLayerComplete(const Request& req, double now,
                              double monitored_sparsity)
{
    Scheduler::onLayerComplete(req, now, monitored_sparsity);
    // Lazy re-key: only this request's estimate can have changed
    // (progress, and possibly a sparsity refinement).
    if (queue.contains(req))
        queue.updatePrimary(req, est->remaining(req));
}

void
SjfScheduler::onComplete(const Request& req, double now)
{
    Scheduler::onComplete(req, now);
    if (queue.contains(req))
        queue.erase(req);
}

size_t
SjfScheduler::selectNext(const std::vector<const Request*>& ready,
                         double now)
{
    (void)now;
    size_t best = 0;
    double best_remaining = est->remaining(*ready[0]);
    for (size_t i = 1; i < ready.size(); ++i) {
        double remaining = est->remaining(*ready[i]);
        if (remaining < best_remaining) {
            best_remaining = remaining;
            best = i;
        }
    }
    return best;
}

Request*
SjfScheduler::pickNext(const std::vector<Request*>& ready, double now)
{
    (void)now;
    panicIf(queue.size() != ready.size(),
            "SjfScheduler: ready queue out of sync with engine "
            "(missing onArrival/onComplete callbacks?)");
    return const_cast<Request*>(queue.top());
}

} // namespace dysta
