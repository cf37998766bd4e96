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
 *    core duplicates it onto a second node if still unfinished.
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
 */

#ifndef DYSTA_SIM_EVENT_QUEUE_HH
#define DYSTA_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <string>
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
     * Request id at push time (Timeout/Hedge only): together with
     * `epoch` it detects a recycled request-arena slot, so a stale
     * chaos event can never act on the slot's new tenant.
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
 * The calendar contract every implementation must honour: push
 * assigns monotonically increasing `seq` numbers, pop returns the
 * minimum under the (time, kind, node, seq) total order. Two
 * implementations fed the same push sequence therefore produce the
 * same pop sequence — the property tests/test_streaming.cc checks —
 * so the simulation schedule is independent of the calendar choice.
 */
class Calendar
{
  public:
    virtual ~Calendar() = default;

    virtual bool empty() const = 0;
    virtual size_t size() const = 0;
    /** Drop all events and reset the seq counter. */
    virtual void clear() = 0;

    /** Schedule an event (its `seq` is overwritten). */
    virtual void push(SimEvent ev) = 0;

    /** Remove and return the earliest event. @pre !empty() */
    virtual SimEvent pop() = 0;
};

/**
 * Binary min-heap of events under operator< with a deferred pop, the
 * storage of both calendars.
 *
 * pop() hands out the root and leaves its slot vacant; the next
 * push() refills the vacancy with one hole-based sift-down from the
 * root, so the hold pattern of a discrete-event loop (pop one event,
 * push its successor) costs one sift instead of a pop_heap plus a
 * push_heap. Any other access — top(), a second pop(), drainInto() —
 * first settles the vacancy (last element to the root, sift down).
 * size() and empty() never count the vacant slot.
 */
class EventHeap
{
  public:
    bool empty() const { return size() == 0; }
    size_t size() const { return heap.size() - (vacant ? 1 : 0); }
    void clear();

    void push(SimEvent ev);

    /** Earliest event. @pre !empty() */
    const SimEvent& top();

    /** Remove and return the earliest event. @pre !empty() */
    SimEvent pop();

    /** Append every pending event to `out` (any order) and clear. */
    void drainInto(std::vector<SimEvent>& out);

  private:
    std::vector<SimEvent> heap;
    /** heap[0] was handed out by pop() and awaits a refill. */
    bool vacant = false;

    void settle();
    /** Place `ev` at the root hole and sift it down to its slot. */
    void siftDownFromRoot(const SimEvent& ev);
};

/** Deterministic min-heap calendar. */
class EventQueue final : public Calendar
{
  public:
    bool empty() const override { return heap.empty(); }
    size_t size() const override { return heap.size(); }
    void clear() override;

    void push(SimEvent ev) override;

    /** Earliest event. @pre !empty() */
    const SimEvent& top();

    SimEvent pop() override;

  private:
    EventHeap heap;
    uint64_t nextSeq = 0;
};

/**
 * Bucket (calendar-queue) implementation: events hash into
 * fixed-width time buckets, each an EventHeap under the full event
 * order; pop scans forward from the current bucket's time window —
 * one O(1) front probe per bucket, since the front is always the
 * bucket's earliest year — wrapping around "years" for events far in
 * the future, and the bucket array resizes itself (Brown's
 * calendar-queue scheme, with the width tuned to the head-local
 * event density) to keep ~O(1) events per bucket. The bucket count
 * is always a power of two, so a window maps to its bucket with a
 * mask, and the window of a time is one multiply by the stored
 * reciprocal width. Same deterministic tie-break contract as the
 * heap — pop sequences are identical event for event — but with
 * near-O(1) push/pop under the hold-model access pattern of large
 * steady-state runs, where a binary heap pays O(log n) per
 * operation.
 */
class BucketCalendar final : public Calendar
{
  public:
    BucketCalendar();

    bool empty() const override { return count == 0; }
    size_t size() const override { return count; }
    void clear() override;

    void push(SimEvent ev) override;
    SimEvent pop() override;

    /** Current bucket-array size (introspection for the bench). */
    size_t bucketCount() const { return buckets.size(); }

  private:
    std::vector<EventHeap> buckets;
    size_t count = 0;
    uint64_t nextSeq = 0;
    /**
     * Reciprocal of the bucket time width (1/s): windowOf multiplies
     * by it instead of dividing by the width.
     */
    double invWidth = 1.0;
    /** Absolute (unwrapped) index of the current time window. */
    uint64_t currentWindow = 0;

    uint64_t windowOf(double time) const;
    EventHeap& bucketOf(uint64_t window)
    {
        return buckets[window & (buckets.size() - 1)];
    }
    void insert(const SimEvent& ev);
    void resize(size_t new_bucket_count);
    void maybeGrow();
    void maybeShrink();
};

/** The calendar implementations runSimulation can run on. */
enum class CalendarKind : uint8_t
{
    Heap = 0,   ///< binary heap (the seed behaviour)
    Bucket = 1, ///< self-resizing bucket/calendar queue
};

std::string toString(CalendarKind kind);

/**
 * Parse "heap" / "bucket" (case-sensitive, the serialized forms of
 * toString). fatal() on anything else, naming the valid values.
 */
CalendarKind calendarKindFromName(const std::string& name);

/** Construct an empty calendar of the given kind. */
std::unique_ptr<Calendar> makeCalendar(CalendarKind kind);

/** Calendar ordering: time, kind, node, push order. */
bool operator<(const SimEvent& a, const SimEvent& b);

} // namespace dysta

#endif // DYSTA_SIM_EVENT_QUEUE_HH
