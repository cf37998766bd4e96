/**
 * @file
 * Arrival sources: where the simulation core's requests come from.
 *
 * The core (sim/core.cc) keeps exactly ONE pending arrival in the
 * calendar: when it pops, the source is asked for the next one.
 * Because workload generators emit arrivals in non-decreasing time
 * order and the Arrival kind outranks every other event kind on
 * time ties, this lazy pump pops the calendar in exactly the same
 * order as pushing every arrival up front — the schedule is
 * bit-identical — while the number of alive Request objects stays
 * bounded by the in-flight set.
 *
 * Two sources exist: MaterializedSource adapts the classic
 * pre-generated std::vector<Request> (retirement is a no-op: the
 * caller's vector keeps every request and its final state), and
 * WorkloadArrivalSource (src/workload/source.hh) generates requests
 * one at a time from the ArrivalProcess + trace sampler, recycling
 * retired ones through a RequestArena. Either way the core retires
 * every request into the same StreamingMetrics.
 */

#ifndef DYSTA_SIM_SOURCE_HH
#define DYSTA_SIM_SOURCE_HH

#include <cstddef>
#include <vector>

#include "sched/request.hh"

namespace dysta {

/** A bounded stream of requests feeding one simulation run. */
class ArrivalSource
{
  public:
    virtual ~ArrivalSource() = default;

    /** Total number of requests this source will emit. */
    virtual size_t total() const = 0;

    /**
     * The next request in non-decreasing arrival-time order
     * (ties in emission order), or nullptr when the source is
     * exhausted. The returned request stays valid until retire().
     */
    virtual Request* next() = 0;

    /**
     * The core is done with `req` (completed or shed): the source
     * may recycle its storage. Default: keep it (materialized
     * vectors own their requests for the whole run).
     */
    virtual void retire(Request* req, double now)
    {
        (void)req;
        (void)now;
    }
};

/**
 * The pre-generated-vector adapter: emits the requests of a caller-
 * owned vector in (arrival, id) order — the exact order the
 * materialized core sorted its calendar pushes by.
 */
class MaterializedSource final : public ArrivalSource
{
  public:
    explicit MaterializedSource(std::vector<Request>& requests);

    size_t total() const override { return ordered.size(); }
    Request* next() override;

  private:
    std::vector<Request*> ordered;
    size_t cursor = 0;
};

} // namespace dysta

#endif // DYSTA_SIM_SOURCE_HH
