/**
 * @file
 * Lazy workload generation: the streaming twin of generateWorkload.
 *
 * generateWorkload() materializes every Request of a run up front,
 * so memory grows linearly with the request count. A
 * WorkloadArrivalSource performs the exact same per-request RNG
 * sequence — same seed derivation, same draw order (arrival time,
 * model, sparsity pattern, trace sample) — but one request at a
 * time, on demand, into RequestArena slots that retired requests
 * return to. A streaming run over N requests therefore produces the
 * bit-identical schedule to a materialized run over
 * generateWorkload()'s vector while keeping only the in-flight set
 * alive, which is what makes >=10M-request scenarios run at flat
 * RSS (scenarios/megascale.scn, bench/bench_megascale.cc).
 */

#ifndef DYSTA_WORKLOAD_SOURCE_HH
#define DYSTA_WORKLOAD_SOURCE_HH

#include <memory>

#include "sim/request_arena.hh"
#include "sim/source.hh"
#include "util/rng.hh"
#include "workload/workload.hh"

namespace dysta {

/**
 * Generates the requests of one WorkloadConfig lazily, recycling
 * retired requests. The registry must outlive the source (requests
 * reference its traces), exactly as with generateWorkload().
 */
class WorkloadArrivalSource final : public ArrivalSource
{
  public:
    /** fatal() on the same invalid configs generateWorkload rejects. */
    WorkloadArrivalSource(const WorkloadConfig& config,
                          const TraceRegistry& registry);

    size_t total() const override;
    Request* next() override;
    void retire(Request* req, double now) override;

    /** Pool introspection (peak live set, slot reuse counters). */
    const RequestArena& arena() const { return pool; }

  private:
    WorkloadConfig config;
    Rng rng;
    WorkloadMix mix;
    std::unique_ptr<ArrivalProcess> arrivals;
    RequestArena pool;
    int produced = 0;
    double lastArrival = 0.0;
};

} // namespace dysta

#endif // DYSTA_WORKLOAD_SOURCE_HH
