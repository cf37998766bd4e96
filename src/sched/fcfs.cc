#include "sched/fcfs.hh"

#include "util/logging.hh"

namespace dysta {

void
FcfsScheduler::reset()
{
    Scheduler::reset();
    queue.clear();
}

void
FcfsScheduler::onArrival(const Request& req, double now)
{
    Scheduler::onArrival(req, now);
    queue.push(&req, {req.arrival, req.id});
}

void
FcfsScheduler::onComplete(const Request& req, double now)
{
    Scheduler::onComplete(req, now);
    if (queue.contains(req))
        queue.erase(req);
}

size_t
FcfsScheduler::selectNext(const std::vector<const Request*>& ready,
                          double now)
{
    (void)now;
    size_t best = 0;
    for (size_t i = 1; i < ready.size(); ++i) {
        if (ready[i]->arrival < ready[best]->arrival ||
            (ready[i]->arrival == ready[best]->arrival &&
             ready[i]->id < ready[best]->id)) {
            best = i;
        }
    }
    return best;
}

Request*
FcfsScheduler::pickNext(const std::vector<Request*>& ready, double now)
{
    (void)now;
    panicIf(queue.size() != ready.size(),
            "FcfsScheduler: ready queue out of sync with engine "
            "(missing onArrival/onComplete callbacks?)");
    // The heap holds pointers into the engine's mutable request set;
    // the constness is an artifact of the const callback views.
    return const_cast<Request*>(queue.top());
}

} // namespace dysta
