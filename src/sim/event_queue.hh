/**
 * @file
 * The global event calendar of the discrete-event simulation core.
 *
 * One binary heap of typed events drives every engine in the repo:
 *
 *  - Arrival: a request reaches the cluster front door;
 *  - LayerComplete: the in-flight layer of one node finishes (the
 *    zero-count monitor fires here; block boundaries are where the
 *    next dispatch decision happens);
 *  - NodeChange: a node's availability changes (drain / fail /
 *    recover) — sorted after same-instant layer completions (the
 *    layer genuinely finished before the node died) and before the
 *    decision sweep (a recovered node joins the same instant's
 *    dispatch);
 *  - Decision: a coalesced sweep that starts blocks on idle nodes
 *    after the arrivals of one instant have all been placed —
 *    preserving the admit-then-select ordering for simultaneous
 *    arrivals;
 *  - Timeout: a request's per-attempt deadline allowance expired
 *    (chaos engine; retried or shed by the core);
 *  - Hedge: the hedged-dispatch delay of a request elapsed — the
 *    core duplicates it onto a second node if still unfinished;
 *  - BatchRelease: a held batch formation's fill wait expired.
 *
 * The chaos kinds sort *after* every seed kind at the same instant,
 * so runs that never push them keep the exact pre-chaos pop order —
 * the chaos-off bit-identity guarantee.
 *
 * Ties are broken deterministically by (time, kind, node, push
 * order): arrivals before completions before node changes before
 * decisions, completions by lowest node id — so a fixed workload
 * seed always reproduces the same schedule, independent of fleet
 * size or policy cost.
 *
 * There is one calendar implementation, EventQueue, which the run
 * loop holds by value. The lazy arrival pump keeps one arrival
 * pending at a time, so the calendar stays a few dozen events deep
 * at most; at that depth a binary heap beats a bucket calendar queue,
 * which only paid off from ~1e4 pending events.
 *
 * A node's next LayerComplete that would be the very next pop never
 * enters the calendar: the run loop asks popsNext(), takes its push
 * order with skipPush() and runs the step in place. Nothing can
 * happen between such a push and its pop, so the pop order, the seq
 * numbers of every other event and the event count stay as if it had
 * been pushed.
 */

#ifndef DYSTA_SIM_EVENT_QUEUE_HH
#define DYSTA_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sched/request.hh"

namespace dysta {

/** Calendar event types, in tie-break priority order. */
enum class SimEventKind : uint8_t
{
    Arrival = 0,
    LayerComplete = 1,
    NodeChange = 2,
    Decision = 3,
    Timeout = 4,
    Hedge = 5,
    /**
     * A held batch formation's fill wait expired (batching only;
     * sorts after every seed kind, so batching-off runs keep the
     * exact pre-batching pop order).
     */
    BatchRelease = 6,
};

/** Availability transitions a NodeChange event can carry. */
enum class NodeEventKind : uint8_t
{
    Drain = 0,   ///< stop accepting new work, finish the queue
    Fail = 1,    ///< drop dead; queued work returns to the dispatcher
    Recover = 2, ///< back in service
};

/** One calendar entry. */
struct SimEvent
{
    double time = 0.0;
    SimEventKind kind = SimEventKind::Decision;
    /** Node owning the completing layer / changing state; -1 else. */
    int node = -1;
    /** Arriving request; nullptr for non-arrival events. */
    Request* req = nullptr;
    /** Availability transition (NodeChange events only). */
    NodeEventKind nodeEvent = NodeEventKind::Drain;
    /**
     * Staleness stamp at push time. LayerComplete: the node's
     * fail-epoch — a mismatch against the node's current epoch marks
     * the layer as abandoned by an intervening failure. Timeout /
     * Hedge: the request's cancel-epoch — a mismatch means the
     * attempt the event was armed for is gone (retried, completed or
     * shed).
     */
    uint64_t epoch = 0;
    /**
     * Request id at push time (Timeout/Hedge only). Ids are unique
     * within a run, so a mismatch alone detects a recycled
     * request-arena slot (whose new tenant restarts its cancel-epoch
     * at 0 and may reach the stamped `epoch` again): a stale chaos
     * event can never act on the slot's new tenant.
     */
    int rid = -1;
    /**
     * Emitted by the run's FailureProcess (NodeChange only): the
     * core refills the one-pending chaos event when this pops.
     */
    bool chaos = false;
    /** Push order, assigned by the queue (final tie-break). */
    uint64_t seq = 0;
};

/**
 * Deterministic binary min-heap calendar with a deferred pop.
 *
 * push assigns monotonically increasing `seq` numbers and pop returns
 * the minimum under the (time, kind, node, seq) total order, so a
 * fixed push sequence always yields the same pop sequence.
 *
 * pop() hands out the root and leaves its slot vacant; the next
 * push() refills the vacancy with one hole-based sift-down from the
 * root, so the hold pattern of a discrete-event loop (pop one event,
 * push its successor) costs one sift instead of a pop_heap plus a
 * push_heap. Any other access — top() or a second pop() — first
 * settles the vacancy (last element to the root, sift down). size()
 * and empty() never count the vacant slot.
 *
 * The hot operations are defined inline below, so they inline into
 * the run loop, which holds its queue by value.
 */
class EventQueue
{
  public:
    bool empty() const { return size() == 0; }
    size_t size() const { return heap.size() - (vacant ? 1 : 0); }
    /** Drop all events and reset the seq counter. */
    void clear();

    /**
     * Schedule an event (its `seq` is overwritten). panic()s on a
     * NaN or negative time: a NaN breaks the total order, and nothing
     * may be scheduled before time zero.
     */
    void push(SimEvent ev);

    /** Earliest event. @pre !empty() */
    const SimEvent& top();

    /** Remove and return the earliest event. @pre !empty() */
    SimEvent pop();

    /**
     * Whether `ev`, pushed now, would be the next pop (its `seq` is
     * overwritten with the next push order, as push() would). Leaves
     * a deferred-pop vacancy unsettled; an event push() would reject
     * is never next.
     */
    bool popsNext(SimEvent ev) const;

    /**
     * Use up the push order of an event the caller handles in place
     * instead of pushing (after popsNext), so every later push keeps
     * the seq it would have had.
     */
    void skipPush() { ++nextSeq; }

  private:
    std::vector<SimEvent> heap;
    /** heap[0] was handed out by pop() and awaits a refill. */
    bool vacant = false;
    uint64_t nextSeq = 0;

    void settle();
    /** Place `ev` at the root hole and sift it down to its slot. */
    void siftDownFromRoot(const SimEvent& ev);
    /** Debug builds: popsNext's `next` against a scan of the heap. */
    void crossCheckPopsNext(const SimEvent& ev, bool next) const;
    [[noreturn]] static void rejectEventTime(const SimEvent& ev);
    [[noreturn]] static void emptyAccess(const char* op);
};

/** Calendar ordering: time, kind, node, push order. */
inline bool
operator<(const SimEvent& a, const SimEvent& b)
{
    if (a.time != b.time)
        return a.time < b.time;
    if (a.kind != b.kind)
        return a.kind < b.kind;
    if (a.node != b.node)
        return a.node < b.node;
    return a.seq < b.seq;
}

inline void
EventQueue::siftDownFromRoot(const SimEvent& ev)
{
    const size_t n = heap.size();
    size_t hole = 0;
    for (;;) {
        size_t child = 2 * hole + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap[child + 1] < heap[child])
            ++child;
        if (!(heap[child] < ev))
            break;
        heap[hole] = heap[child];
        hole = child;
    }
    heap[hole] = ev;
}

inline void
EventQueue::settle()
{
    vacant = false;
    SimEvent last = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDownFromRoot(last);
}

inline void
EventQueue::push(SimEvent ev)
{
    if (!(ev.time >= 0.0))
        rejectEventTime(ev);
    ev.seq = nextSeq++;
    if (vacant) {
        // The hold fast path: the successor of the event just popped
        // takes its root slot with a single sift-down.
        vacant = false;
        siftDownFromRoot(ev);
        return;
    }
    size_t hole = heap.size();
    heap.push_back(ev);
    while (hole > 0) {
        size_t parent = (hole - 1) / 2;
        if (!(ev < heap[parent]))
            break;
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = ev;
}

inline const SimEvent&
EventQueue::top()
{
    if (vacant)
        settle();
    if (heap.empty())
        emptyAccess("top");
    return heap.front();
}

inline SimEvent
EventQueue::pop()
{
    if (vacant)
        settle();
    if (heap.empty())
        emptyAccess("pop");
    vacant = true;
    return heap.front();
}

inline bool
EventQueue::popsNext(SimEvent ev) const
{
    if (!(ev.time >= 0.0))
        return false;
    ev.seq = nextSeq;
    // A vacant root awaits a refill: the pending minimum is then one
    // of its children.
    const size_t first = vacant ? 1 : 0;
    const size_t n = heap.size();
    bool next = (first >= n || ev < heap[first]) &&
                (!vacant || n < 3 || ev < heap[2]);
#ifndef NDEBUG
    crossCheckPopsNext(ev, next);
#endif
    return next;
}

} // namespace dysta

#endif // DYSTA_SIM_EVENT_QUEUE_HH
