#include "workload/source.hh"

#include "util/logging.hh"

namespace dysta {

WorkloadArrivalSource::WorkloadArrivalSource(
    const WorkloadConfig& workload, const TraceRegistry& traces)
    : config(workload),
      // Same seed derivation as generateWorkload: the two paths draw
      // the identical random sequence for one WorkloadConfig.
      rng(config.seed * 0x9E3779B97F4A7C15ULL + 0x123456789ULL),
      mix(config.kind, traces),
      arrivals(makeArrivalProcess(config.arrival, config.arrivalRate))
{
    fatalIf(config.arrivalRate <= 0.0,
            "WorkloadArrivalSource: arrival rate must be positive");
    fatalIf(config.numRequests <= 0,
            "WorkloadArrivalSource: need at least one request");
}

size_t
WorkloadArrivalSource::total() const
{
    return static_cast<size_t>(config.numRequests);
}

Request*
WorkloadArrivalSource::next()
{
    if (produced >= config.numRequests)
        return nullptr;

    // One iteration of generateWorkload's loop, draw for draw.
    lastArrival = arrivals->nextArrival(lastArrival, rng);
    WorkloadMix::Pick pick = mix.draw(rng);
    const SampleTrace& trace =
        pick.set->sample(rng.uniformInt(0, pick.set->size() - 1));

    Request* slot = pool.acquire();
    *slot = makeRequest(produced, pick.key, trace, lastArrival,
                        config.sloMultiplier,
                        pick.set->avgTotalLatency());
    ++produced;
    return slot;
}

void
WorkloadArrivalSource::retire(Request* req, double now)
{
    (void)now;
    pool.release(req);
}

} // namespace dysta
