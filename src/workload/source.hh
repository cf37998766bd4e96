/**
 * @file
 * The workload generator: one request at a time, on demand.
 *
 * A WorkloadArrivalSource derives its RNG from the workload seed and
 * draws each request in a fixed order (arrival time, model, sparsity
 * pattern, trace sample) into RequestArena slots that retired
 * requests return to. A streaming run therefore keeps only the
 * in-flight set alive, which is what makes >=10M-request scenarios
 * run at flat RSS (scenarios/megascale.scn,
 * bench/bench_megascale.cc). generateWorkload() drains the same
 * source into a vector, so a materialized run over that vector has
 * the bit-identical schedule.
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
 * reference its traces).
 */
class WorkloadArrivalSource final : public ArrivalSource
{
  public:
    /**
     * fatal(), naming the bad value, on a non-positive or non-finite
     * arrival rate or a non-positive request count.
     */
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
