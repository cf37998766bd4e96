#include "sim/event_queue.hh"

#include <string>

#include "util/logging.hh"

namespace dysta {

namespace {

const char*
kindName(SimEventKind kind)
{
    switch (kind) {
      case SimEventKind::Arrival: return "Arrival";
      case SimEventKind::LayerComplete: return "LayerComplete";
      case SimEventKind::NodeChange: return "NodeChange";
      case SimEventKind::Decision: return "Decision";
      case SimEventKind::Timeout: return "Timeout";
      case SimEventKind::Hedge: return "Hedge";
      case SimEventKind::BatchRelease: return "BatchRelease";
    }
    return "unknown";
}

} // namespace

void
EventQueue::clear()
{
    heap.clear();
    vacant = false;
    nextSeq = 0;
}

void
EventQueue::crossCheckPopsNext(const SimEvent& ev, bool next) const
{
    bool below_all = ev.time >= 0.0;
    for (size_t i = vacant ? 1 : 0; i < heap.size() && below_all; ++i)
        below_all = ev < heap[i];
    if (below_all != next)
        panic(std::string("EventQueue::popsNext: heap answer ") +
              (next ? "true" : "false") +
              " disagrees with a scan of every pending event");
}

void
EventQueue::rejectEventTime(const SimEvent& ev)
{
    panic("EventQueue: event time " + std::to_string(ev.time) +
          " of kind " + kindName(ev.kind) + " is NaN or negative");
}

void
EventQueue::emptyAccess(const char* op)
{
    panic(std::string("EventQueue: ") + op + " of empty calendar");
}

} // namespace dysta
