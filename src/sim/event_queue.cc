#include "sim/event_queue.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace dysta {

bool
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

/**
 * Both calendars reject an event time that is NaN or negative: a NaN
 * breaks the total order (and is UB in BucketCalendar::windowOf's
 * integer conversion), and nothing may be scheduled before time
 * zero. The message is built only on failure.
 */
inline void
checkEventTime(const char* who, const SimEvent& ev)
{
    if (!(ev.time >= 0.0))
        panic(std::string(who) + ": event time " +
              std::to_string(ev.time) + " of kind " +
              kindName(ev.kind) + " is NaN or negative");
}

} // namespace

// --- EventHeap -------------------------------------------------------------

void
EventHeap::clear()
{
    heap.clear();
    vacant = false;
}

void
EventHeap::siftDownFromRoot(const SimEvent& ev)
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

void
EventHeap::settle()
{
    vacant = false;
    SimEvent last = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDownFromRoot(last);
}

void
EventHeap::push(SimEvent ev)
{
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

const SimEvent&
EventHeap::top()
{
    if (vacant)
        settle();
    panicIf(heap.empty(), "EventHeap: top of empty calendar");
    return heap.front();
}

SimEvent
EventHeap::pop()
{
    if (vacant)
        settle();
    panicIf(heap.empty(), "EventHeap: pop of empty calendar");
    vacant = true;
    return heap.front();
}

void
EventHeap::drainInto(std::vector<SimEvent>& out)
{
    if (vacant)
        settle();
    out.insert(out.end(), heap.begin(), heap.end());
    heap.clear();
}

// --- EventQueue ------------------------------------------------------------

void
EventQueue::clear()
{
    heap.clear();
    nextSeq = 0;
}

void
EventQueue::push(SimEvent ev)
{
    checkEventTime("EventQueue", ev);
    ev.seq = nextSeq++;
    heap.push(ev);
}

const SimEvent&
EventQueue::top()
{
    return heap.top();
}

SimEvent
EventQueue::pop()
{
    return heap.pop();
}

// --- BucketCalendar --------------------------------------------------------

namespace {

/**
 * Initial (and minimum) bucket-array size; every size is
 * kMinBuckets * 2^k, so windows map to buckets with a mask.
 */
constexpr size_t kMinBuckets = 8;

} // namespace

BucketCalendar::BucketCalendar()
{
    buckets.resize(kMinBuckets);
}

void
BucketCalendar::clear()
{
    buckets.assign(kMinBuckets, {});
    count = 0;
    nextSeq = 0;
    invWidth = 1.0;
    currentWindow = 0;
}

uint64_t
BucketCalendar::windowOf(double time) const
{
    // A multiply by a positive constant is monotone in time, so every
    // window holds a contiguous time range and same-time ties share a
    // window.
    double window = time * invWidth;
    // Defensive clamp against uint64 overflow for absurd time/width
    // ratios: clamped events all land in the last window, where the
    // full comparator still orders them correctly.
    if (window >= 1.8e19)
        return static_cast<uint64_t>(1.8e19);
    return static_cast<uint64_t>(window);
}

void
BucketCalendar::insert(const SimEvent& ev)
{
    uint64_t window = windowOf(ev.time);
    // Each bucket is a min-heap under the full event order, so its
    // front is the bucket's earliest event. windowOf is monotone in
    // time, so the front also belongs to the earliest "year" the
    // bucket holds — which is what lets pop test a whole bucket
    // against the current window in O(1).
    bucketOf(window).push(ev);
    // An event behind the cursor (e.g. pushed at the current sim
    // time after the cursor advanced past sparse windows) moves the
    // cursor back so the scan lower bound stays valid.
    if (window < currentWindow)
        currentWindow = window;
}

void
BucketCalendar::push(SimEvent ev)
{
    checkEventTime("BucketCalendar", ev);
    ev.seq = nextSeq++;
    insert(ev);
    ++count;
    maybeGrow();
}

SimEvent
BucketCalendar::pop()
{
    panicIf(count == 0, "BucketCalendar: pop of empty calendar");

    // Scan forward one time window at a time: every event in window
    // w is strictly earlier than every event in window w+1, and
    // same-time ties always share a window, so the first non-empty
    // window holds the global minimum and the full (time, kind,
    // node, seq) order picks it within the window. Each bucket is a
    // min-heap, so one front probe settles a whole bucket: a front
    // from a later "year" means the bucket holds nothing for this
    // window (windowOf is monotone in time), and a front from this
    // window is both the bucket's and therefore the window's
    // minimum. A front from an earlier year is impossible — the
    // cursor never passes a pending event (insert moves it back).
    EventHeap* bucket = nullptr;
    for (size_t step = 0; step < buckets.size(); ++step) {
        uint64_t window = currentWindow + step;
        EventHeap& cand = bucketOf(window);
        if (!cand.empty() && windowOf(cand.top().time) == window) {
            currentWindow = window;
            bucket = &cand;
            break;
        }
    }

    if (bucket == nullptr) {
        // Sparse tail: no event within a full bucket-array sweep of
        // windows. Fall back to comparing every bucket's front for
        // the global minimum and jump the cursor to its window.
        for (EventHeap& cand : buckets) {
            if (cand.empty())
                continue;
            if (bucket == nullptr || cand.top() < bucket->top())
                bucket = &cand;
        }
        panicIf(bucket == nullptr, "BucketCalendar: lost events");
        currentWindow = windowOf(bucket->top().time);
    }

    SimEvent ev = bucket->pop();
    --count;
    maybeShrink();
    return ev;
}

void
BucketCalendar::resize(size_t new_bucket_count)
{
    panicIf(new_bucket_count < kMinBuckets ||
                (new_bucket_count & (new_bucket_count - 1)) != 0,
            "BucketCalendar: bucket count is not a power of two");
    std::vector<SimEvent> all;
    all.reserve(count);
    for (EventHeap& bucket : buckets)
        bucket.drainInto(all);
    double lo = all.empty() ? 0.0 : all.front().time;
    double hi = lo;
    for (const SimEvent& ev : all) {
        lo = std::min(lo, ev.time);
        hi = std::max(hi, ev.time);
    }
    buckets.assign(new_bucket_count, {});

    // Retune the bucket width toward a few pending events per window
    // (Brown's calendar-queue heuristic). The width must match the
    // typical gap between successive *pops*, which is set by the
    // event density at the head of the queue — not by the global
    // span: a sparse far-future tail (think node changes scheduled
    // hundreds of seconds out among millisecond-scale completions)
    // would inflate span/count by orders of magnitude and pile
    // hundreds of near-term events into every window, degrading pop
    // to a linear scan. So sample the gap between *distinct* times
    // among the m earliest events — simultaneous ties (same-instant
    // arrival bursts are common) share a window whatever the width,
    // so they must not drag the density estimate. A tieless sample
    // (distinct == 0) or a zero global span keeps the previous
    // width: no width can separate exact ties, and they are correct
    // within one window anyway.
    if (!all.empty() && hi > lo) {
        size_t m = std::min<size_t>(all.size(), 1024);
        std::vector<double> times(all.size());
        for (size_t i = 0; i < all.size(); ++i)
            times[i] = all[i].time;
        std::partial_sort(times.begin(), times.begin() + m,
                          times.end());
        size_t distinct = 0;
        for (size_t i = 1; i < m; ++i)
            if (times[i] > times[i - 1])
                ++distinct;
        if (distinct > 0) {
            double tuned = (times[m - 1] - times[0]) /
                           static_cast<double>(distinct) * 3.0;
            double inv = 1.0 / tuned;
            if (tuned > 0.0 && std::isfinite(tuned) &&
                std::isfinite(inv))
                invWidth = inv;
        }
    }

    currentWindow = all.empty() ? 0 : windowOf(lo);
    for (const SimEvent& ev : all)
        insert(ev); // seq survives: insert never reassigns it
}

void
BucketCalendar::maybeGrow()
{
    if (count > 2 * buckets.size())
        resize(buckets.size() * 2);
}

void
BucketCalendar::maybeShrink()
{
    if (buckets.size() > kMinBuckets && count < buckets.size() / 4)
        resize(buckets.size() / 2);
}

// --- factory ---------------------------------------------------------------

std::string
toString(CalendarKind kind)
{
    switch (kind) {
      case CalendarKind::Heap: return "heap";
      case CalendarKind::Bucket: return "bucket";
    }
    panic("toString: unknown CalendarKind");
}

CalendarKind
calendarKindFromName(const std::string& name)
{
    if (name == "heap")
        return CalendarKind::Heap;
    if (name == "bucket")
        return CalendarKind::Bucket;
    fatal("calendarKindFromName: unknown calendar '" + name +
          "'; valid calendars: heap, bucket");
}

std::unique_ptr<Calendar>
makeCalendar(CalendarKind kind)
{
    switch (kind) {
      case CalendarKind::Heap:
        return std::make_unique<EventQueue>();
      case CalendarKind::Bucket:
        return std::make_unique<BucketCalendar>();
    }
    panic("makeCalendar: unknown CalendarKind");
}

} // namespace dysta
