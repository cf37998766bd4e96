/**
 * @file
 * Per-request state indexed by the request's dense run slot.
 *
 * Schedulers and estimators read per-request state on every event
 * (Alg. 2 re-scores the queue, Alg. 3 refines the remainder at every
 * layer boundary), so it lives in a vector indexed by
 * `Request::slot` rather than in a hash map keyed by id. Slots are
 * recycled across a run, so every cell remembers the id of the
 * request that owns it: a lookup by any other request misses
 * exactly like an absent key, and a reused slot never inherits a
 * leaked tenant's state. A hedge clone copies its primary's id and
 * slot, so both copies share one cell — the same sharing id keys
 * gave.
 */

#ifndef DYSTA_SCHED_SLOT_TABLE_HH
#define DYSTA_SCHED_SLOT_TABLE_HH

#include <optional>
#include <utility>
#include <vector>

#include "sched/request.hh"
#include "util/logging.hh"

namespace dysta {

/** Vector of per-request `T`, indexed by slot and checked by id. */
template <typename T>
class SlotTable
{
  public:
    /** The state `req` owns, or nullptr when it holds none. */
    T*
    find(const Request& req)
    {
        return const_cast<T*>(std::as_const(*this).find(req));
    }

    const T*
    find(const Request& req) const
    {
        auto slot = static_cast<size_t>(req.slot);
        if (slot >= cells.size())
            return nullptr;
        const Cell& cell = cells[slot];
        if (!cell.value || cell.owner != req.id)
            return nullptr;
        return &*cell.value;
    }

    bool contains(const Request& req) const { return find(req) != nullptr; }

    /**
     * Give `req` fresh state built from `args`, evicting whatever
     * its slot held (another request's state included).
     */
    template <typename... Args>
    void
    emplace(const Request& req, Args&&... args)
    {
        panicIf(req.slot < 0, "SlotTable: request without a run slot");
        auto slot = static_cast<size_t>(req.slot);
        if (slot >= cells.size())
            cells.resize(slot + 1);
        Cell& cell = cells[slot];
        cell.owner = req.id;
        cell.value.emplace(std::forward<Args>(args)...);
    }

    /** Drop the state `req` owns, if any. */
    void
    erase(const Request& req)
    {
        if (contains(req))
            cells[static_cast<size_t>(req.slot)].value.reset();
    }

    /** Drop all state, keeping the storage for the next run. */
    void clear() { cells.clear(); }

  private:
    struct Cell
    {
        int owner = -1;
        std::optional<T> value;
    };

    std::vector<Cell> cells;
};

} // namespace dysta

#endif // DYSTA_SCHED_SLOT_TABLE_HH
