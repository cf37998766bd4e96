#include "digest.hh"

#include <cstdint>
#include <sstream>

#include "api/diff.hh"

namespace perfbench {

using namespace dysta;

std::string
cellLabel(const SweepCell& cell)
{
    const WorkloadConfig& w = cell.workload;
    std::ostringstream out;
    out << (w.kind == WorkloadKind::MultiCNN ? "cnn" : "attnn") << '@'
        << w.arrivalRate << '/' << toString(w.arrival.kind) << "/slo"
        << w.sloMultiplier << '/';
    if (cell.clusterMode) {
        const ClusterRunConfig& c = cell.cluster;
        size_t nodes = c.nodes.empty() ? c.numNodes : c.nodes.size();
        out << 'n' << nodes << '/' << c.dispatcher << "/m"
            << c.admission.margin << '/'
            << (c.chaos.empty() ? "nochaos" : c.chaos) << '/'
            << (c.batcher.empty() ? "nobatch" : c.batcher) << '/'
            << c.nodeScheduler;
    } else {
        out << cell.scheduler;
    }
    out << "/s" << w.seed;
    return out.str();
}

void
writeDigest(JsonWriter& w, const SweepCell& cell,
            const SweepCellResult& result)
{
    const Metrics& m = result.metrics;
    w.field("cell", cellLabel(cell));
    w.field("events", static_cast<uint64_t>(result.eventsProcessed));
    w.field("decisions", static_cast<uint64_t>(result.decisions));
    w.field("preemptions", static_cast<uint64_t>(result.preemptions));
    w.field("completed", static_cast<uint64_t>(m.completed));
    w.field("shed", static_cast<uint64_t>(m.shed));
    w.field("antt", m.antt);
    w.field("violation_rate", m.violationRate);
    w.field("slo_miss_rate", m.sloMissRate);
    w.field("throughput", m.throughput);
    w.field("goodput", m.goodput);
    w.field("stp", m.stp);
    w.field("p50_turnaround", m.p50Turnaround);
    w.field("p95_turnaround", m.p95Turnaround);
    w.field("p99_turnaround", m.p99Turnaround);
    w.field("p50_latency", m.p50Latency);
    w.field("p95_latency", m.p95Latency);
    w.field("p99_latency", m.p99Latency);
    w.field("makespan", m.makespan);
    w.beginArray("probes");
    for (const EstimatorAccuracy& e : m.estimators) {
        w.beginObject();
        w.field("estimator", e.estimator);
        w.field("samples", e.samples);
        w.field("bias", e.bias);
        w.field("rmse", e.rmse);
        w.field("iso_samples", e.isolatedSamples);
        w.field("iso_bias", e.isolatedBias);
        w.field("iso_rmse", e.isolatedRmse);
        w.endObject();
    }
    w.endArray();
    const ResilienceStats& r = m.resilience;
    if (r.active) {
        w.beginObject("resilience");
        w.field("availability", r.availability);
        w.field("mttr", r.mttr);
        w.field("failures", r.failures);
        w.field("timeouts", r.timeouts);
        w.field("retries", r.retries);
        w.field("retry_amplification", r.retryAmplification);
        w.field("hedges", r.hedges);
        w.field("hedge_wins", r.hedgeWins);
        w.field("hedge_win_rate", r.hedgeWinRate);
        w.field("brownout_sheds", r.brownoutSheds);
        w.beginArray("tiers");
        for (const TierStats& t : r.tiers) {
            w.beginObject();
            w.field("completed", t.completed);
            w.field("violations", t.violations);
            w.field("shed", t.shed);
            w.field("goodput", t.goodput);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    const BatchStats& b = m.batching;
    if (b.active) {
        w.beginObject("batching");
        w.field("formed", b.formed);
        w.field("joins", b.joins);
        w.field("steps", b.steps);
        w.field("mean_occupancy", b.meanOccupancy);
        w.field("mean_fill_wait", b.meanFillWaitSec);
        w.field("straggler_tax", b.stragglerTaxSec);
        w.endObject();
    }
}

JsonValue
digestCell(const SweepCell& cell, const SweepCellResult& result)
{
    JsonWriter w;
    w.beginObject();
    writeDigest(w, cell, result);
    w.endObject();
    return parseJson(w.str());
}

std::string
firstDifference(const JsonValue& want, const JsonValue& got)
{
    ReportDiff diff = diffReports(want, got);
    return diff.identical() ? "" : diff.differences.front();
}

} // namespace perfbench
