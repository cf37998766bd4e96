#include "sched/scheduler.hh"

#include "util/logging.hh"

namespace dysta {

Request*
Scheduler::pickNext(const std::vector<Request*>& ready, double now)
{
    pickView.assign(ready.begin(), ready.end());
    size_t pick = selectNext(pickView, now);
    panicIf(pick >= ready.size(),
            "Scheduler: scheduler returned invalid index");
    return ready[pick];
}

} // namespace dysta
