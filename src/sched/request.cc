#include "sched/request.hh"

#include "util/logging.hh"

namespace dysta {

double
Request::trueRemaining() const
{
    // O(1) via the trace's cumulative-latency prefix sums: the Oracle
    // estimator calls this on every ready candidate at every decision.
    return trace->remainingFrom(nextLayer);
}

double
Request::normalizedTurnaround() const
{
    panicIf(finishTime < 0.0,
            "normalizedTurnaround on unfinished request");
    double isol = isolated();
    panicIf(isol <= 0.0, "request with non-positive isolated latency");
    return (finishTime - arrival) / isol;
}

bool
Request::violated() const
{
    panicIf(finishTime < 0.0, "violated() on unfinished request");
    return finishTime > deadline;
}

Request
makeRequest(int id, ModelKey model, const SampleTrace& trace,
            double arrival, double slo_multiplier,
            double slo_reference_latency)
{
    Request req;
    req.id = id;
    req.slot = id;
    req.model = model;
    req.trace = &trace;
    req.arrival = arrival;
    req.sloMultiplier = slo_multiplier;
    req.deadline = arrival + slo_multiplier * slo_reference_latency;
    req.lastRunEnd = arrival;
    return req;
}

} // namespace dysta
