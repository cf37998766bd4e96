/**
 * @file
 * Declarative experiment scenarios.
 *
 * A scenario is the full description of one experiment grid —
 * workload mix and arrival process, SLO multipliers, fleet and
 * placement policies, node policies, seeds — as a *value*, parseable
 * from a small key=value file:
 *
 *     # Table 5: end-to-end comparison
 *     name      = tab05
 *     workload  = attnn@30 | cnn@3
 *     slo       = 10
 *     scheduler = FCFS | SJF | SDRM3 | PREMA | Planaria | Dysta
 *     requests  = 1000
 *     seeds     = 5
 *
 * List-valued keys are sweep axes split on '|' (policy specs and
 * fleet specs keep their internal ','). runScenario() expands the
 * axes into SweepCells in a fixed canonical order — workload,
 * arrival, slo, fleet, dispatcher, admission margin, steal ratio,
 * chaos, batcher, scheduler, then seeds innermost — and executes
 * them on the thread-pooled SweepRunner, so every figure/table of
 * the paper (and any scenario a user writes) is a data file instead
 * of a compiled main().
 *
 * Parsing is strict: unknown keys, duplicate keys, malformed panel
 * or axis values and unknown policy names are fatal() errors naming
 * what *would* be valid. serializeScenario() emits the canonical
 * form; parse -> serialize -> parse is the identity.
 *
 * Scenario inheritance: a file may start with `include = base.scn`
 * (the first key, at most once) to inherit every key of the base
 * scenario; its own keys then *replace* the inherited values
 * (axes replace whole, they do not append). Includes resolve
 * relative to the including file's directory, nest arbitrarily and
 * fatal() on cycles. The merge happens entirely at parse time:
 * serializeScenario() emits the flattened form, so `include` never
 * appears in canonical output.
 */

#ifndef DYSTA_API_SCENARIO_HH
#define DYSTA_API_SCENARIO_HH

#include <string>
#include <vector>

#include "exp/sweep.hh"

namespace dysta {

/** One workload panel: a scenario kind at one offered base rate. */
struct WorkloadPanel
{
    WorkloadKind kind = WorkloadKind::MultiAttNN;
    double rate = 30.0;

    /** Compact "attnn@30" form used in files and result rows. */
    std::string label() const;
};

/** Parse "attnn@30" / "cnn@3.5". fatal() on malformed panels. */
WorkloadPanel workloadPanelFromSpec(const std::string& spec);

/**
 * A declarative experiment grid. Each field is one scenario-file key,
 * a row of the key table in scenario.cc.
 */
struct ScenarioSpec
{
    /** Scenario name (report files, table titles). */
    std::string name = "scenario";

    // --- sweep axes --------------------------------------------------
    /** Workload panels (axis; at least one). */
    std::vector<WorkloadPanel> workloads;
    /** Arrival-process specs, e.g. "poisson", "mmpp:burst=8" (axis). */
    std::vector<std::string> arrivals = {"poisson"};
    /** SLO multipliers M_slo (axis). */
    std::vector<double> sloMultipliers = {10.0};
    /** Fleet specs, e.g. "sanger:2,eyeriss-xl:2" (axis; empty =
     *  single-accelerator scenario). */
    std::vector<std::string> fleets;
    /** Dispatcher specs (axis; cluster scenarios only). */
    std::vector<std::string> dispatchers;
    /** Node-scheduler specs (axis; at least one). */
    std::vector<std::string> schedulers;
    /**
     * Failure-process specs (axis; cluster scenarios only), e.g.
     * "mtbf:up=exp@100,down=exp@5"; the literal "none" keeps fault
     * injection off for that grid slice. Empty = no chaos axis.
     */
    std::vector<std::string> chaos;
    /**
     * Batch-formation specs (axis; cluster scenarios only), e.g.
     * "batcher:size=8,delay=2ms,compose=sparsity"; the literal
     * "none" keeps batching off for that grid slice. Empty = no
     * batcher axis.
     */
    std::vector<std::string> batchers;

    // --- per-cell workload knobs -------------------------------------
    int requests = 1000;
    /** Seed replicas per grid point (averaged in the result rows). */
    int seeds = 1;
    /** First workload seed (replicas use seed, seed+1, ...). */
    uint64_t seed = 42;

    // --- cluster knobs (ignored for single-accelerator scenarios) ----
    /** Availability timeline, e.g. "fail@1.0:0,recover@3.0:0". */
    std::string events;
    /** Front-door SLO-aware load shedding. */
    bool admission = false;
    /** Admission conservativeness multipliers (axis; >= 1 value). */
    std::vector<double> admissionMargins = {1.0};
    /**
     * Work-stealing imbalance-ratio thresholds (axis; empty keeps
     * the dispatcher's default — rows then report -1).
     */
    std::vector<double> stealRatios;
    /** Admission-estimator spec override ("" = engine default). */
    std::string admissionEstimator;
    /** "restart" or "shed": fate of work displaced by a failure. */
    std::string onFailure = "restart";
    /** Retry-policy spec, e.g. "retry:max=3,backoff=2" ("" = off). */
    std::string retry;
    /** Hedged-dispatch spec, e.g. "hedge:quantile=0.95" ("" = off). */
    std::string hedge;
    /** Brown-out spec, e.g. "brownout:step=0.5" ("" = off). */
    std::string brownout;
    /** Priority-tier weights, e.g. "0.6,0.3,0.1" ("" = one tier). */
    std::string tiers;

    // --- execution model ---------------------------------------------
    /**
     * Pull requests lazily from a WorkloadArrivalSource instead of
     * materializing the workload vector: memory bounded by the
     * in-flight set, bit-identical schedule for the same seed.
     */
    bool streaming = false;
    /** Metrics accumulation ("exact" | "sketch"), streaming or not. */
    MetricsKind metricsKind = MetricsKind::Exact;

    // --- telemetry ---------------------------------------------------
    /**
     * Estimator accuracy probe specs ('|' list; `probes =` with an
     * empty value disables). Every cell shadows these estimators
     * through the request lifecycle and reports their prediction
     * RMSE/bias in the result rows (Metrics::estimators).
     */
    std::vector<std::string> probes = {"lut", "dysta"};

    // --- Phase-1 profile knobs ---------------------------------------
    int samples = 300;
    uint64_t profileSeed = 7;
    double cnnSparsityRate = 0.6;

    /** Whether the grid serves on a simulated cluster. */
    bool cluster() const { return !fleets.empty(); }
};

/** Parse a scenario from file contents. fatal() on any error. */
ScenarioSpec parseScenario(const std::string& text);

/** Looks up a scenario's text by include name; nullptr if absent. */
using ScenarioIncludeLookup = const char* (*)(const std::string& name);

/**
 * Parse scenario text whose `include =` names resolve through
 * `lookup` instead of the disk. `self` is the text's own include
 * name, so a cycle back to it is caught. fatal() on any error.
 */
ScenarioSpec parseScenario(const std::string& text,
                           const std::string& self,
                           ScenarioIncludeLookup lookup);

/** Parse a scenario file from disk. fatal() on any error. */
ScenarioSpec parseScenarioFile(const std::string& path);

/** Canonical key=value form; parse(serialize(s)) == s. */
std::string serializeScenario(const ScenarioSpec& spec);

/**
 * Validate axis values against the PolicyRegistry and the spec's
 * own invariants (non-empty axes, cluster keys only with a fleet,
 * positive counts). fatal() naming the offending value. Runs before
 * the expensive Phase-1 profile in runScenario().
 */
void validateScenario(const ScenarioSpec& spec);

/** The Phase-1 profile a scenario needs. */
BenchSetup scenarioSetup(const ScenarioSpec& spec);

/**
 * Expand the grid into SweepCells in canonical order: workload,
 * arrival, slo, fleet, dispatcher, admission margin, steal ratio,
 * chaos, batcher, scheduler, seeds innermost.
 */
std::vector<SweepCell> scenarioCells(const ScenarioSpec& spec);

/** One averaged grid point of a scenario result. */
struct ScenarioRow
{
    std::string workload;   ///< panel label, e.g. "attnn@30"
    std::string arrival;    ///< arrival spec
    double slo = 10.0;
    std::string fleet;      ///< "" for single-accelerator rows
    std::string dispatcher; ///< "" for single-accelerator rows
    /** Admission margin of this grid point. */
    double admissionMargin = 1.0;
    /** Steal-ratio threshold; -1 = dispatcher default (no axis). */
    double stealRatio = -1.0;
    /** Failure-process spec; "" when the grid has no chaos axis. */
    std::string chaos;
    /** Batch-formation spec; "" when the grid has no batcher axis. */
    std::string batcher;
    std::string scheduler;
    /** Field-wise mean over the seed replicas. */
    Metrics metrics;
    /** Mean scheduler invocations / preemptions over the replicas. */
    double decisions = 0.0;
    double preemptions = 0.0;
};

/** A fully-executed scenario. */
struct ScenarioResult
{
    ScenarioSpec spec;
    std::vector<ScenarioRow> rows;
    /** Worker threads the sweep ran on. */
    int jobs = 1;

    // --- wall-clock phase timings (report metadata only; excluded
    // --- from report comparison and never part of simulated data) --
    /** Phase-1 profile duration, seconds. */
    double profileSec = 0.0;
    /** Grid-execution duration, seconds. */
    double sweepSec = 0.0;
    /** Per-cell wall-clock durations, in cell order. */
    std::vector<double> cellSeconds;
};

/** Execution knobs orthogonal to the scenario itself. */
struct ScenarioRunOptions
{
    /** Sweep worker threads; <= 0 selects hardware concurrency. */
    int jobs = 0;
    /**
     * Reuse an already-built context (e.g. across scenarios sharing
     * one profile) instead of profiling. Must cover every model the
     * scenario's workloads sample. Not owned.
     */
    const BenchContext* ctx = nullptr;
};

/**
 * Run a scenario end to end: validate, build (or reuse) the Phase-1
 * context, expand the grid, execute it on the SweepRunner and
 * average the seed replicas. Deterministic for any jobs count.
 */
ScenarioResult runScenario(const ScenarioSpec& spec,
                           const ScenarioRunOptions& options = {});

/** Names of the built-in scenarios, in `--list-scenarios` order. */
std::vector<std::string> builtinScenarioNames();

/**
 * Text of scenarios/<name>.scn as embedded at build time (the build
 * lists the names in CMakeLists.txt). fatal() on unknown names,
 * listing the valid ones.
 */
std::string builtinScenarioText(const std::string& name);

/**
 * A built-in scenario by name: its embedded scenarios/<name>.scn
 * parsed, with `include = <other>.scn` resolving against the other
 * embedded files. The file is the only definition, so `sdysta
 * <name>` and the bench binaries that call this run exactly what
 * the file says. fatal() on unknown names, listing the valid ones.
 */
ScenarioSpec builtinScenario(const std::string& name);

} // namespace dysta

#endif // DYSTA_API_SCENARIO_HH
