#include "sched/metrics.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"
#include "util/stats.hh"

namespace dysta {

double
Metrics::shedRate() const
{
    size_t offered = completed + shed;
    return offered > 0
               ? static_cast<double>(shed) / static_cast<double>(offered)
               : 0.0;
}

namespace {

/**
 * The fields both metrics modes derive the same way from their
 * counts and busy interval. Returns false when nothing completed,
 * leaving every completion-based field zero.
 */
bool
fillRates(Metrics& m, size_t violations, double first_arrival,
          double last_finish)
{
    if (m.completed == 0) {
        // Everything was shed: every offered request missed its SLO.
        m.sloMissRate = m.shed > 0 ? 1.0 : 0.0;
        return false;
    }
    double n = static_cast<double>(m.completed);
    m.violationRate = static_cast<double>(violations) / n;
    // Shed requests are client-visible SLO misses: count them in
    // both numerator and denominator so shedding cannot deflate the
    // reported miss rate.
    m.sloMissRate =
        static_cast<double>(violations + m.shed) /
        static_cast<double>(m.completed + m.shed);
    m.makespan = last_finish - first_arrival;
    m.throughput = m.makespan > 0.0 ? n / m.makespan : 0.0;
    m.goodput =
        m.makespan > 0.0
            ? (n - static_cast<double>(violations)) / m.makespan
            : 0.0;
    return true;
}

/**
 * Replay `requests` in vector order into an Exact accumulator. When
 * `allow_shed` is set, shed requests are counted as shed; anything
 * else unfinished panics in recordCompleted().
 */
Metrics
replayExact(const std::vector<Request>& requests, bool allow_shed)
{
    StreamingMetrics sink(MetricsKind::Exact, requests.size());
    for (const Request& req : requests) {
        if (allow_shed && req.shed)
            sink.recordShed(req);
        else
            sink.recordCompleted(req);
    }
    return sink.finalize();
}

} // namespace

std::string
toString(MetricsKind kind)
{
    switch (kind) {
      case MetricsKind::Exact: return "exact";
      case MetricsKind::Sketch: return "sketch";
    }
    panic("toString: unknown MetricsKind");
}

MetricsKind
metricsKindFromName(const std::string& name)
{
    if (name == "exact")
        return MetricsKind::Exact;
    if (name == "sketch")
        return MetricsKind::Sketch;
    fatal("metricsKindFromName: unknown metrics kind '" + name +
          "'; valid kinds: exact, sketch");
}

StreamingMetrics::StreamingMetrics(MetricsKind kind, size_t expected)
    : mode(kind),
      p50Turn(0.50), p95Turn(0.95), p99Turn(0.99),
      p50Lat(0.50), p95Lat(0.95), p99Lat(0.99)
{
    if (mode == MetricsKind::Exact)
        records.reserve(expected);
}

void
StreamingMetrics::recordCompleted(const Request& req)
{
    panicIf(req.finishTime < 0.0,
            "StreamingMetrics: unfinished request retired as "
            "completed");
    double nt = req.normalizedTurnaround();
    if (mode == MetricsKind::Exact) {
        panicIf(records.size() >= (size_t{1} << 31),
                "StreamingMetrics: too many exact records");
        CompletedRecord rec{};
        rec.id = req.id;
        rec.seq = static_cast<uint32_t>(records.size()) & 0x7FFFFFFFu;
        rec.arrival = req.arrival;
        rec.finish = req.finishTime;
        rec.normalizedTurnaround = nt;
        rec.violated = req.violated();
        records.push_back(rec);
        return;
    }
    double latency = req.finishTime - req.arrival;
    if (completedCount == 0) {
        firstArrival = req.arrival;
        lastFinish = req.finishTime;
    } else {
        firstArrival = std::min(firstArrival, req.arrival);
        lastFinish = std::max(lastFinish, req.finishTime);
    }
    ++completedCount;
    if (req.violated())
        ++violationCount;
    turnaroundStats.add(nt);
    speedupStats.add(1.0 / nt);
    p50Turn.add(nt);
    p95Turn.add(nt);
    p99Turn.add(nt);
    p50Lat.add(latency);
    p95Lat.add(latency);
    p99Lat.add(latency);
}

void
StreamingMetrics::recordShed(const Request& req)
{
    panicIf(!req.shed,
            "StreamingMetrics: non-shed request retired as shed");
    ++shedCount;
}

size_t
StreamingMetrics::retired() const
{
    size_t completed =
        mode == MetricsKind::Exact ? records.size() : completedCount;
    return completed + shedCount;
}

Metrics
StreamingMetrics::finalizeExact()
{
    // Sum in request-id order, so the result does not depend on the
    // order requests finished in, and a replayed vector (ids rising
    // with the index) sums in vector order. Equal ids keep their
    // retirement order.
    std::sort(records.begin(), records.end(),
              [](const CompletedRecord& a, const CompletedRecord& b) {
                  return a.id != b.id ? a.id < b.id : a.seq < b.seq;
              });

    Metrics m;
    m.shed = shedCount;
    m.completed = records.size();
    // Shed requests never occupied the system, so the busy interval
    // spans served arrivals only.
    double first_arrival = std::numeric_limits<double>::infinity();
    double last_finish = 0.0;
    size_t violations = 0;
    for (const CompletedRecord& rec : records) {
        first_arrival = std::min(first_arrival, rec.arrival);
        last_finish = std::max(last_finish, rec.finish);
        m.antt += rec.normalizedTurnaround;
        m.stp += 1.0 / rec.normalizedTurnaround;
        if (rec.violated)
            ++violations;
    }
    if (!fillRates(m, violations, first_arrival, last_finish))
        return m;
    m.antt /= static_cast<double>(m.completed);

    // One sort per series; each percentile read is then O(1).
    std::vector<double> series;
    series.reserve(records.size());
    for (const CompletedRecord& rec : records)
        series.push_back(rec.normalizedTurnaround);
    std::sort(series.begin(), series.end());
    m.p50Turnaround = sortedPercentile(series, 50.0);
    m.p95Turnaround = sortedPercentile(series, 95.0);
    m.p99Turnaround = sortedPercentile(series, 99.0);
    series.clear();
    for (const CompletedRecord& rec : records)
        series.push_back(rec.finish - rec.arrival);
    std::sort(series.begin(), series.end());
    m.p50Latency = sortedPercentile(series, 50.0);
    m.p95Latency = sortedPercentile(series, 95.0);
    m.p99Latency = sortedPercentile(series, 99.0);
    return m;
}

Metrics
StreamingMetrics::finalizeSketch() const
{
    Metrics m;
    m.shed = shedCount;
    m.completed = completedCount;
    if (!fillRates(m, violationCount, firstArrival, lastFinish))
        return m;
    m.antt = turnaroundStats.mean();
    m.stp = speedupStats.sum();
    m.p50Turnaround = p50Turn.value();
    m.p95Turnaround = p95Turn.value();
    m.p99Turnaround = p99Turn.value();
    m.p50Latency = p50Lat.value();
    m.p95Latency = p95Lat.value();
    m.p99Latency = p99Lat.value();
    return m;
}

Metrics
StreamingMetrics::finalize()
{
    return mode == MetricsKind::Exact ? finalizeExact()
                                      : finalizeSketch();
}

Metrics
computeMetrics(const std::vector<Request>& requests)
{
    return replayExact(requests, false);
}

Metrics
computeMetricsCompleted(const std::vector<Request>& requests)
{
    return replayExact(requests, true);
}

} // namespace dysta
