/**
 * @file
 * Multi-DNN performance metrics (Sec. 6.1): average normalized
 * turnaround time (ANTT), latency-SLO violation rate, and system
 * throughput.
 *
 * Each stats block's fields are listed once, in the StatsField tables
 * below; a new field is one table entry there. The perfbench digest
 * (perfbench/src/digest.cc) keeps its own list.
 */

#ifndef DYSTA_SCHED_METRICS_HH
#define DYSTA_SCHED_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/request.hh"
#include "util/stats.hh"

namespace dysta {

/**
 * Prediction accuracy of one latency estimator over a run, measured
 * by a telemetry probe (src/obs/telemetry.hh): residuals are
 * estimated minus ground-truth latency in reference-hardware
 * seconds. `bias`/`rmse` cover remaining-latency queries after each
 * observed layer; the `isolated*` fields cover the one-shot
 * end-to-end estimate at dispatch.
 */
struct EstimatorAccuracy
{
    /** Estimator spec the probe was built from (e.g. "dysta"). */
    std::string estimator;
    /** Remaining-latency residual sample count. */
    double samples = 0.0;
    /** Mean residual (positive = over-estimates). */
    double bias = 0.0;
    /** Root-mean-square residual. */
    double rmse = 0.0;
    /** Isolated-latency residual sample count (one per dispatch). */
    double isolatedSamples = 0.0;
    double isolatedBias = 0.0;
    double isolatedRmse = 0.0;
};

/** Per-priority-tier outcome counts of a chaos-engine run. */
struct TierStats
{
    double completed = 0.0;
    /** Completions past their deadline. */
    double violations = 0.0;
    double shed = 0.0;
    /** SLO-attained completions per second of makespan. */
    double goodput = 0.0;
};

/**
 * Resilience metrics of the chaos engine (src/chaos/). `active` is
 * set only when a resilience mechanism (fault injection, retries,
 * hedging, brown-out, tiers) was configured: inactive stats are
 * never reported, so chaos-off reports stay bit-identical to builds
 * without the subsystem. Counts are doubles so seed replicas average
 * the same way as every other metric.
 */
struct ResilienceStats
{
    bool active = false;
    /** 1 - (node-down time / (nodes * makespan)). */
    double availability = 1.0;
    /** Mean observed repair time over closed down-spells, seconds. */
    double mttr = 0.0;
    /** Node-down transitions observed (fault-domain fan-out counted
     * per node). */
    double failures = 0.0;
    /** Per-attempt deadline timeouts fired. */
    double timeouts = 0.0;
    /** Re-dispatches after a timeout. */
    double retries = 0.0;
    /** Dispatch attempts per offered request (>= 1). */
    double retryAmplification = 1.0;
    /** Hedged duplicates issued. */
    double hedges = 0.0;
    /** Hedges whose clone finished first. */
    double hedgeWins = 0.0;
    /** hedgeWins / hedges (0 when no hedges). */
    double hedgeWinRate = 0.0;
    /** Admission sheds attributed to brown-out margin escalation. */
    double brownoutSheds = 0.0;
    /** Per-tier outcomes; empty unless tiers were configured. */
    std::vector<TierStats> tiers;
};

/**
 * Dynamic-batching metrics (src/batch/). `active` is set only when
 * batch formation was enabled, so batching-off reports stay
 * bit-identical to builds without the subsystem. Counts are doubles
 * so seed replicas average the same way as every other metric.
 */
struct BatchStats
{
    bool active = false;
    /** Batches formed (anchor picked, batch started fresh). */
    double formed = 0.0;
    /** Continuous-batching joins at layer boundaries. */
    double joins = 0.0;
    /** Batch layer steps executed. */
    double steps = 0.0;
    /** Mean members per batch step (memberSteps / steps). */
    double meanOccupancy = 0.0;
    /** Mean queue wait before a request's first batch step, s. */
    double meanFillWaitSec = 0.0;
    /**
     * Total time members spent waiting on a slower co-member: sum
     * over steps of (step base latency - own layer latency).
     */
    double stragglerTaxSec = 0.0;
};

/** Aggregate results of one scheduling run. */
struct Metrics
{
    /** ANTT: mean over requests of T_multi / T_isol (>= 1). */
    double antt = 0.0;
    /** Fraction of completed requests past their deadline, in [0,1]. */
    double violationRate = 0.0;
    /**
     * Fraction of *offered* requests that missed their SLO:
     * (violations + shed) / (completed + shed). A shed request is an
     * SLO miss from the client's point of view, so unlike
     * `violationRate` this rate cannot be gamed by shedding
     * aggressively — with any sheds, sloMissRate >= violationRate.
     */
    double sloMissRate = 0.0;
    /** Completed inferences per second over the busy interval. */
    double throughput = 0.0;
    /**
     * SLO-attained throughput: completions that met their deadline
     * per second of makespan. The headline serving metric — raw
     * throughput counts deadline-missing work, goodput does not.
     */
    double goodput = 0.0;
    /** Eyerman-Eeckhout STP: sum of per-request speedups. */
    double stp = 0.0;
    /** Median normalized turnaround (ANT percentile). */
    double p50Turnaround = 0.0;
    /** 95th-percentile normalized turnaround. */
    double p95Turnaround = 0.0;
    /** 99th-percentile normalized turnaround. */
    double p99Turnaround = 0.0;
    /** Median end-to-end latency (finish - arrival), seconds. */
    double p50Latency = 0.0;
    /** 95th-percentile end-to-end latency, seconds. */
    double p95Latency = 0.0;
    /** 99th-percentile end-to-end latency, seconds. */
    double p99Latency = 0.0;
    /** Number of completed requests. */
    size_t completed = 0;
    /** Requests rejected by admission control (cluster runs). */
    size_t shed = 0;
    /** Last finish time minus first arrival. */
    double makespan = 0.0;
    /**
     * Per-estimator prediction accuracy from telemetry probes;
     * empty when the run carried no probes.
     */
    std::vector<EstimatorAccuracy> estimators;
    /** Chaos-engine resilience metrics (inactive unless configured). */
    ResilienceStats resilience;
    /** Dynamic-batching metrics (inactive unless enabled). */
    BatchStats batching;

    /** Shed fraction of all offered requests, in [0, 1]. */
    double shedRate() const;
};

/**
 * One numeric field of a stats block. The tables below list every
 * field once, in report order: seed averaging (averageMetrics), the
 * report's JSON rows and CSV columns (src/api/report.cc) and
 * metricsDifferences() all walk them.
 */
template <typename Stats>
struct StatsField
{
    constexpr StatsField(const char* key, double Stats::*member,
                         const char* column = nullptr)
        : name(key), csv(column ? column : key), real(member)
    {
    }
    constexpr StatsField(const char* key, size_t Stats::*member)
        : name(key), csv(key), count(member)
    {
    }

    /** JSON key, and the step in a metricsDifferences() path. */
    const char* name;
    /** CSV column; "" when the field has none. */
    const char* csv;
    /** The member: a double, or a count (Metrics::completed, shed). */
    double Stats::*real = nullptr;
    size_t Stats::*count = nullptr;
};

inline constexpr StatsField<Metrics> kMetricsFields[] = {
    {"antt", &Metrics::antt},
    {"violation_rate", &Metrics::violationRate},
    {"slo_miss_rate", &Metrics::sloMissRate},
    {"throughput", &Metrics::throughput},
    {"goodput", &Metrics::goodput},
    {"stp", &Metrics::stp},
    {"p50_turnaround", &Metrics::p50Turnaround},
    {"p95_turnaround", &Metrics::p95Turnaround},
    {"p99_turnaround", &Metrics::p99Turnaround},
    {"p50_latency", &Metrics::p50Latency},
    {"p95_latency", &Metrics::p95Latency},
    {"p99_latency", &Metrics::p99Latency},
    {"completed", &Metrics::completed},
    {"shed", &Metrics::shed},
    {"makespan", &Metrics::makespan},
};

/**
 * Per-probe fields after the `estimator` name. The CSV carries bias
 * and rmse as est_<name>_bias / est_<name>_rmse.
 */
inline constexpr StatsField<EstimatorAccuracy> kEstimatorFields[] = {
    {"samples", &EstimatorAccuracy::samples, ""},
    {"bias", &EstimatorAccuracy::bias},
    {"rmse", &EstimatorAccuracy::rmse},
    {"isolated_samples", &EstimatorAccuracy::isolatedSamples, ""},
    {"isolated_bias", &EstimatorAccuracy::isolatedBias, ""},
    {"isolated_rmse", &EstimatorAccuracy::isolatedRmse, ""},
};

/** ResilienceStats fields before `tiers`. */
inline constexpr StatsField<ResilienceStats> kResilienceFields[] = {
    {"availability", &ResilienceStats::availability},
    {"mttr", &ResilienceStats::mttr},
    {"failures", &ResilienceStats::failures},
    {"timeouts", &ResilienceStats::timeouts},
    {"retries", &ResilienceStats::retries},
    {"retry_amplification", &ResilienceStats::retryAmplification},
    {"hedges", &ResilienceStats::hedges},
    {"hedge_wins", &ResilienceStats::hedgeWins},
    {"hedge_win_rate", &ResilienceStats::hedgeWinRate},
    {"brownout_sheds", &ResilienceStats::brownoutSheds},
};

inline constexpr StatsField<TierStats> kTierFields[] = {
    {"completed", &TierStats::completed, ""},
    {"violations", &TierStats::violations, ""},
    {"shed", &TierStats::shed, ""},
    {"goodput", &TierStats::goodput, ""},
};

inline constexpr StatsField<BatchStats> kBatchFields[] = {
    {"formed", &BatchStats::formed, "batch_formed"},
    {"joins", &BatchStats::joins, "batch_joins"},
    {"steps", &BatchStats::steps, "batch_steps"},
    {"mean_occupancy", &BatchStats::meanOccupancy, "batch_occupancy"},
    {"mean_fill_wait", &BatchStats::meanFillWaitSec, "batch_fill_wait"},
    {"straggler_tax", &BatchStats::stragglerTaxSec,
     "batch_straggler_tax"},
};

/**
 * Path of every field in which `a` and `b` differ bit for bit, block
 * by block in report order, e.g. "antt", "estimators[0].rmse",
 * "resilience.tiers[1].shed"; "estimators" or "resilience.tiers"
 * when the list lengths differ. Empty means identical.
 */
std::vector<std::string> metricsDifferences(const Metrics& a,
                                            const Metrics& b);

/** How a run accumulates its metrics. */
enum class MetricsKind : uint8_t
{
    /**
     * Keep one small record per completed request and aggregate
     * them in request-id order at finalize (exact sums, sorted
     * percentiles), whatever order the requests finished in.
     * O(completed) memory. The default, and the right choice below
     * ~10^6 requests.
     */
    Exact = 0,
    /**
     * O(1)-memory sketch: Welford accumulators for the means, P²
     * estimators for the percentiles, exact counters for
     * violations/sheds/makespan/throughput. Percentiles carry P²
     * approximation error; every other field is exact up to
     * floating-point summation order. Required for megascale runs.
     */
    Sketch = 1,
};

std::string toString(MetricsKind kind);

/** Parse "exact" / "sketch". fatal() on anything else. */
MetricsKind metricsKindFromName(const std::string& name);

/**
 * The one metrics aggregation: every simulation run retires its
 * requests into one of these, one at a time, so no completed-request
 * vector has to stay alive, and computeMetrics() replays a request
 * vector through it. Exact mode aggregates its records in request-id
 * order (ties in retirement order); Sketch mode holds only O(1)
 * state. `finalize()` may be called once, after the last retirement.
 */
class StreamingMetrics
{
  public:
    /**
     * @param expected completions the run can retire at most (0 when
     *        unknown); Exact mode reserves its records up front, so
     *        they never grow by copying
     */
    explicit StreamingMetrics(MetricsKind kind = MetricsKind::Exact,
                              size_t expected = 0);

    MetricsKind kind() const { return mode; }

    /** Retire one completed request (finishTime set). */
    void recordCompleted(const Request& req);

    /** Retire one shed request. */
    void recordShed(const Request& req);

    /** Requests retired so far (completed + shed). */
    size_t retired() const;

    /** Aggregate everything retired so far into a Metrics. */
    Metrics finalize();

  private:
    /** Exact-mode retained state: everything finalizeExact() reads. */
    struct CompletedRecord
    {
        double arrival = 0.0;
        double finish = 0.0;
        double normalizedTurnaround = 0.0;
        int id = -1;
        /**
         * Retirement order, the sort's tie-break between equal ids;
         * it fits the padding, so the sort is total and needs no
         * stable-sort buffer.
         */
        uint32_t seq : 31;
        uint32_t violated : 1;
    };
    static_assert(sizeof(CompletedRecord) <= 32,
                  "one completed request must stay 32 bytes");

    MetricsKind mode;
    size_t shedCount = 0;

    // --- exact mode ---------------------------------------------------
    std::vector<CompletedRecord> records;

    // --- sketch mode --------------------------------------------------
    size_t completedCount = 0;
    size_t violationCount = 0;
    double firstArrival = 0.0;
    double lastFinish = 0.0;
    /** Normalized-turnaround moments (mean feeds ANTT). */
    OnlineStats turnaroundStats;
    /** Per-request speedup (1/nt) moments (sum feeds STP). */
    OnlineStats speedupStats;
    P2Quantile p50Turn, p95Turn, p99Turn;
    P2Quantile p50Lat, p95Lat, p99Lat;

    Metrics finalizeExact();
    Metrics finalizeSketch() const;
};

/**
 * Compute metrics from a fully-executed request set: replays it, in
 * vector order, into an Exact StreamingMetrics.
 * panic() on any unfinished request; empty input yields zero metrics.
 */
Metrics computeMetrics(const std::vector<Request>& requests);

/**
 * Metrics over the completed subset of a cluster run: shed requests
 * (finishTime < 0 with the shed flag) are excluded from turnaround
 * and violation statistics and counted in Metrics::shed instead.
 * panic() on unfinished requests that were not shed.
 */
Metrics computeMetricsCompleted(const std::vector<Request>& requests);

} // namespace dysta

#endif // DYSTA_SCHED_METRICS_HH
