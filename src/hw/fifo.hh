/**
 * @file
 * Fixed-capacity FIFO modelling the hardware scheduler's tag/score/
 * SLO queues (Sec. 5.2.1). The depth is a synthesis parameter; the
 * model tracks peak occupancy so experiments can size the FIFOs.
 */

#ifndef DYSTA_HW_FIFO_HH
#define DYSTA_HW_FIFO_HH

#include <cstddef>
#include <vector>

#include "util/logging.hh"

namespace dysta {

/** Bounded FIFO with occupancy tracking. */
template <typename T>
class Fifo
{
  public:
    explicit Fifo(size_t max_depth)
        : depth(max_depth)
    {
        panicIf(max_depth == 0, "Fifo: depth must be positive");
    }

    bool full() const { return items.size() >= depth; }
    bool empty() const { return items.empty(); }
    size_t size() const { return items.size(); }
    size_t capacity() const { return depth; }
    size_t peakOccupancy() const { return peak; }

    /** Push one entry; returns false (drop) when full. */
    bool
    push(const T& item)
    {
        if (full())
            return false;
        items.push_back(item);
        peak = std::max(peak, items.size());
        return true;
    }

    /** Pop the oldest entry. @pre !empty() */
    T
    pop()
    {
        panicIf(items.empty(), "Fifo::pop on empty queue");
        T item = items.front();
        items.erase(items.begin());
        return item;
    }

    /** Random access for the score-update scan. @pre i < size() */
    T&
    at(size_t i)
    {
        panicIf(i >= items.size(), "Fifo::at out of range");
        return items[i];
    }

    const T&
    at(size_t i) const
    {
        panicIf(i >= items.size(), "Fifo::at out of range");
        return items[i];
    }

    /** Remove an entry by index (completion retires a request). */
    void
    erase(size_t i)
    {
        panicIf(i >= items.size(), "Fifo::erase out of range");
        items.erase(items.begin() + static_cast<ptrdiff_t>(i));
    }

    /** Empty the queue for a new run; the high-water mark restarts. */
    void
    clear()
    {
        items.clear();
        peak = 0;
    }

  private:
    size_t depth;
    size_t peak = 0;
    std::vector<T> items;
};

} // namespace dysta

#endif // DYSTA_HW_FIFO_HH
