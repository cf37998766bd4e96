#include "workload/source.hh"

#include <cmath>
#include <string>

#include "util/logging.hh"
#include "util/parse.hh"

namespace dysta {

namespace {

/** `config`, once its rate and request count are known to be sane. */
const WorkloadConfig&
checked(const WorkloadConfig& config)
{
    fatalIf(!(config.arrivalRate > 0.0) ||
                !std::isfinite(config.arrivalRate),
            "WorkloadArrivalSource: arrival rate must be positive and "
            "finite, got " + shortestDouble(config.arrivalRate));
    fatalIf(config.numRequests <= 0,
            "WorkloadArrivalSource: need at least one request, got " +
                std::to_string(config.numRequests));
    return config;
}

} // namespace

WorkloadArrivalSource::WorkloadArrivalSource(
    const WorkloadConfig& workload, const TraceRegistry& traces)
    : config(checked(workload)),
      rng(config.seed * 0x9E3779B97F4A7C15ULL + 0x123456789ULL),
      mix(config.kind, traces),
      arrivals(makeArrivalProcess(config.arrival, config.arrivalRate))
{
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

    // Draw order: arrival time, model, sparsity pattern, sample.
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
