/**
 * @file
 * Heap-backed ready queues for scheduling policies.
 *
 * `IndexedMinHeap` is an indexed binary min-heap over requests: a
 * position table indexed by the request's run slot (see
 * sched/slot_table.hh) gives O(log n) push / erase / re-key and O(1)
 * access to the minimum. Policies whose ordering is time-invariant
 * between engine callbacks (FCFS's arrival order, SJF's estimated
 * remainder, Dysta's frozen static score) keep one as their ready
 * queue and answer `pickNext` from the heap top —
 * re-keying lazily when an estimate actually changes (a layer
 * completed, a sparsity observation refined the remainder) instead
 * of rescoring the whole queue at every decision.
 *
 * Policies whose scores drift with wall-clock time between events
 * (PREMA tokens, Dysta dynamic scores) cannot sit in a static heap:
 * the ordering of two idle requests can flip with no callback in
 * between, so any key assigned at the last event may go stale. Those
 * policies instead keep densely cached per-request score inputs and
 * scan them — O(n), but O(1) arithmetic per candidate where the
 * legacy path paid a hash lookup, a string-keyed LUT fetch and a
 * predictor re-evaluation per candidate per decision.
 */

#ifndef DYSTA_SIM_READY_QUEUE_HH
#define DYSTA_SIM_READY_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sched/request.hh"
#include "sched/slot_table.hh"

namespace dysta {

/** Heap key: primary score plus a deterministic tie-breaker. */
struct ReadyKey
{
    double primary = 0.0;
    /**
     * Tie-break, smaller first. Policies use the request id (FCFS)
     * or a monotone enqueue sequence so ties resolve exactly like
     * the legacy first-wins linear scan.
     */
    int64_t tiebreak = 0;
};

inline bool
operator<(const ReadyKey& a, const ReadyKey& b)
{
    if (a.primary != b.primary)
        return a.primary < b.primary;
    return a.tiebreak < b.tiebreak;
}

/** Indexed binary min-heap of requests, indexed by run slot. */
class IndexedMinHeap
{
  public:
    size_t size() const { return heap.size(); }
    bool empty() const { return heap.empty(); }
    void clear();

    bool contains(const Request& req) const { return pos.contains(req); }

    /** Insert a request. panic() if it is already present. */
    void push(const Request* req, ReadyKey key);

    /** Remove a request. panic() if absent. */
    void erase(const Request& req);

    /**
     * Re-key a request's primary score, keeping its tie-break.
     * panic() if absent.
     */
    void updatePrimary(const Request& req, double primary);

    /** Minimum-key request. @pre !empty() */
    const Request* top() const;

    /** Key of the minimum-key request. @pre !empty() */
    const ReadyKey& topKey() const;

  private:
    struct Item
    {
        const Request* req;
        ReadyKey key;
    };

    std::vector<Item> heap;
    SlotTable<size_t> pos; ///< request -> index in heap

    /** Restore heap order around index i; returns its final index. */
    size_t siftUp(size_t i);
    size_t siftDown(size_t i);
    void place(size_t i, Item item);
};

} // namespace dysta

#endif // DYSTA_SIM_READY_QUEUE_HH
