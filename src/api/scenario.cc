#include "api/scenario.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/registry.hh"
#include "batch/batch.hh"
#include "chaos/chaos.hh"
#include "chaos/failure.hh"
#include "obs/phase_timer.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "workload/cluster_spec.hh"

namespace dysta {

namespace {

std::string
trimmed(const std::string& s)
{
    size_t begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    size_t end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

/** Split an axis value on '|', trimming each element. */
std::vector<std::string>
splitAxis(const std::string& key, const std::string& value)
{
    std::vector<std::string> out;
    if (trimmed(value).empty())
        return out;
    for (size_t pos = 0, bar = 0; bar != std::string::npos; pos = bar + 1) {
        bar = value.find('|', pos);
        out.push_back(trimmed(value.substr(pos, bar - pos)));
        fatalIf(out.back().empty(), "parseScenario: empty element in "
                                    "the '" + key + "' list");
    }
    return out;
}

// --- one parse/print pair per ScenarioSpec field type ---------------

/** fatal() unless `ok`, naming the key, the expected form and text. */
void
expect(bool ok, const std::string& key, const char* what,
       const std::string& text)
{
    if (!ok)
        fatal("parseScenario: '" + key + "' expects " + what +
              ", got '" + text + "'");
}

void
parseValue(const std::string& key, const std::string& text, int& out)
{
    expect(tryParseInt(text, out), key, "an integer", text);
}

std::string
printValue(int v)
{
    return std::to_string(v);
}

void
parseValue(const std::string& key, const std::string& text,
           uint64_t& out)
{
    expect(tryParseU64(text, out), key, "a non-negative integer", text);
}

std::string
printValue(uint64_t v)
{
    return std::to_string(v);
}

void
parseValue(const std::string& key, const std::string& text, double& out)
{
    expect(tryParseDouble(text, out), key, "a number", text);
}

std::string
printValue(double v)
{
    return shortestDouble(v);
}

void
parseValue(const std::string& key, const std::string& text, bool& out)
{
    expect(tryParseBool(text, out), key, kBoolSpellings, text);
}

std::string
printValue(bool v)
{
    return v ? "1" : "0";
}

void
parseValue(const std::string&, const std::string& text, std::string& out)
{
    out = text;
}

std::string
printValue(const std::string& v)
{
    return v;
}

void
parseValue(const std::string&, const std::string& text, MetricsKind& out)
{
    out = metricsKindFromName(text);
}

std::string
printValue(MetricsKind v)
{
    return toString(v);
}

void
parseValue(const std::string&, const std::string& text, WorkloadPanel& out)
{
    out = workloadPanelFromSpec(text);
}

std::string
printValue(const WorkloadPanel& v)
{
    return v.label();
}

/** A '|' axis: each element parses and prints as one T. */
template <typename T>
void
parseValue(const std::string& key, const std::string& text,
           std::vector<T>& out)
{
    out.clear();
    for (const std::string& item : splitAxis(key, text))
        parseValue(key, item, out.emplace_back());
}

template <typename T>
std::string
printValue(const std::vector<T>& items)
{
    std::string out;
    for (const T& item : items)
        out += (out.empty() ? "" : " | ") + printValue(item);
    return out;
}

/** One scenario-file key and the ScenarioSpec field it sets. */
struct SpecKey
{
    const char* name;
    void (*parse)(ScenarioSpec& spec, const std::string& key,
                  const std::string& text);
    std::string (*print)(const ScenarioSpec& spec);
    /** Must print as on a default spec unless there is a 'fleet'. */
    bool clusterOnly;
    /** An empty value is rejected. */
    bool required;
};

enum : unsigned { kClusterOnly = 1, kRequired = 2 };

template <auto Field>
constexpr SpecKey
specKey(const char* name, unsigned flags = 0)
{
    return {name,
            [](ScenarioSpec& spec, const std::string& key,
               const std::string& text) {
                parseValue(key, text, spec.*Field);
            },
            [](const ScenarioSpec& spec) { return printValue(spec.*Field); },
            (flags & kClusterOnly) != 0, (flags & kRequired) != 0};
}

/**
 * Every scenario-file key but `include`, in canonical serialization
 * order. Parsing, serializeScenario(), the unknown-key message and
 * the fleet-only check of validateScenario() all walk this table.
 */
constexpr SpecKey kSpecKeys[] = {
    specKey<&ScenarioSpec::name>("name", kRequired),
    specKey<&ScenarioSpec::workloads>("workload"),
    specKey<&ScenarioSpec::arrivals>("arrival"),
    specKey<&ScenarioSpec::sloMultipliers>("slo"),
    specKey<&ScenarioSpec::schedulers>("scheduler"),
    specKey<&ScenarioSpec::fleets>("fleet"),
    specKey<&ScenarioSpec::dispatchers>("dispatcher", kClusterOnly),
    specKey<&ScenarioSpec::requests>("requests"),
    specKey<&ScenarioSpec::seeds>("seeds"),
    specKey<&ScenarioSpec::seed>("seed"),
    specKey<&ScenarioSpec::events>("events", kClusterOnly),
    specKey<&ScenarioSpec::admission>("admission", kClusterOnly),
    specKey<&ScenarioSpec::admissionMargins>("admission_margin",
                                             kClusterOnly | kRequired),
    specKey<&ScenarioSpec::stealRatios>("steal_ratio", kClusterOnly),
    specKey<&ScenarioSpec::admissionEstimator>("admission_estimator",
                                               kClusterOnly),
    specKey<&ScenarioSpec::onFailure>("on_failure", kClusterOnly),
    specKey<&ScenarioSpec::chaos>("chaos", kClusterOnly),
    specKey<&ScenarioSpec::retry>("retry", kClusterOnly),
    specKey<&ScenarioSpec::hedge>("hedge", kClusterOnly),
    specKey<&ScenarioSpec::brownout>("brownout", kClusterOnly),
    specKey<&ScenarioSpec::tiers>("tiers", kClusterOnly),
    specKey<&ScenarioSpec::batchers>("batcher", kClusterOnly),
    specKey<&ScenarioSpec::probes>("probes"),
    specKey<&ScenarioSpec::samples>("samples"),
    specKey<&ScenarioSpec::profileSeed>("profile_seed"),
    specKey<&ScenarioSpec::cnnSparsityRate>("cnn_sparsity"),
    specKey<&ScenarioSpec::streaming>("streaming"),
    specKey<&ScenarioSpec::metricsKind>("metrics"),
};

void
applyKey(ScenarioSpec& spec, const std::string& key,
         const std::string& value)
{
    for (const SpecKey& row : kSpecKeys) {
        if (key != row.name)
            continue;
        if (row.required && value.empty())
            fatal("parseScenario: '" + key + "' must not be empty");
        row.parse(spec, key, value);
        return;
    }
    std::string valid = "include";
    for (const SpecKey& row : kSpecKeys)
        valid += std::string(", ") + row.name;
    fatal("parseScenario: unknown key '" + key + "'; valid keys: " +
          valid);
}

} // namespace

std::string
WorkloadPanel::label() const
{
    return (kind == WorkloadKind::MultiCNN ? "cnn@" : "attnn@") +
           shortestDouble(rate);
}

WorkloadPanel
workloadPanelFromSpec(const std::string& spec)
{
    size_t at = spec.find('@');
    fatalIf(at == std::string::npos || at == 0 ||
                at + 1 >= spec.size(),
            "workloadPanelFromSpec: malformed workload panel '" + spec +
                "' (want kind@rate, e.g. attnn@30)");
    WorkloadPanel panel;
    std::string kind = spec.substr(0, at);
    if (kind == "cnn" || kind == "multi-cnn")
        panel.kind = WorkloadKind::MultiCNN;
    else if (kind != "attnn" && kind != "multi-attnn")
        fatal("workloadPanelFromSpec: unknown workload kind '" + kind +
              "'; valid kinds: attnn, cnn");
    parseValue("workload", spec.substr(at + 1), panel.rate);
    fatalIf(!(panel.rate > 0.0) || !std::isfinite(panel.rate),
            "workloadPanelFromSpec: rate must be positive and finite "
            "in '" + spec + "'");
    return panel;
}

namespace {

ScenarioSpec
parseScenarioImpl(const std::string& text, const std::string& base_dir,
                  ScenarioIncludeLookup lookup,
                  std::vector<std::string>& include_stack);

/**
 * Resolve `include = name` and parse the base scenario, carrying the
 * stack of open includes for cycle detection. With a `lookup` the
 * name is a key of that set; without one it is a file path relative
 * to the including file's directory.
 */
ScenarioSpec
resolveInclude(const std::string& name, const std::string& base_dir,
               ScenarioIncludeLookup lookup,
               std::vector<std::string>& include_stack)
{
    fatalIf(name.empty(), "parseScenario: 'include' needs a file "
                          "name");
    // Cycles are caught below, but an acyclic chain can still be
    // arbitrarily deep; cap it so a pathological scenario tree fails
    // fast instead of exhausting the stack.
    fatalIf(include_stack.size() >= 16,
            "parseScenario: include chain deeper than 16 files");
    std::filesystem::path path(name);
    if (!lookup && path.is_relative() && !base_dir.empty())
        path = std::filesystem::path(base_dir) / path;

    std::error_code ec;
    std::filesystem::path canon =
        lookup ? path : std::filesystem::weakly_canonical(path, ec);
    std::string id = ec ? path.string() : canon.string();
    for (const std::string& open : include_stack)
        fatalIf(open == id, "parseScenario: include cycle through '" +
                                id + "'");

    std::string text;
    if (lookup) {
        const char* found = lookup(name);
        fatalIf(!found, "parseScenario: cannot open include '" + name +
                            "'");
        text = found;
    } else {
        // Refuse directories and device nodes (`include = /dev/zero`
        // would otherwise read forever). A missing file falls through
        // to the cannot-open error below.
        std::error_code reg_ec;
        std::filesystem::file_status st =
            std::filesystem::status(path, reg_ec);
        fatalIf(std::filesystem::exists(st) &&
                    !std::filesystem::is_regular_file(st),
                "parseScenario: include '" + path.string() +
                    "' is not a regular file");

        std::ifstream in(path);
        fatalIf(!in, "parseScenario: cannot open include '" +
                         path.string() + "'");
        std::ostringstream contents;
        contents << in.rdbuf();
        text = contents.str();
    }

    include_stack.push_back(id);
    ScenarioSpec spec = parseScenarioImpl(
        text, path.parent_path().string(), lookup, include_stack);
    include_stack.pop_back();
    return spec;
}

ScenarioSpec
parseScenarioImpl(const std::string& text, const std::string& base_dir,
                  ScenarioIncludeLookup lookup,
                  std::vector<std::string>& include_stack)
{
    ScenarioSpec spec;
    std::vector<std::string> seen;
    std::istringstream in(text);
    std::string raw;
    int lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.resize(hash);
        std::string line = trimmed(raw);
        if (line.empty())
            continue;
        size_t eq = line.find('=');
        fatalIf(eq == std::string::npos,
                "parseScenario: line " + std::to_string(lineno) +
                    " is not 'key = value': '" + line + "'");
        std::string key = trimmed(line.substr(0, eq));
        std::string value = trimmed(line.substr(eq + 1));
        fatalIf(key.empty(), "parseScenario: line " +
                                 std::to_string(lineno) +
                                 " has an empty key");
        fatalIf(std::find(seen.begin(), seen.end(), key) != seen.end(),
                "parseScenario: duplicate key '" + key + "' (line " +
                    std::to_string(lineno) + ")");
        if (key == "include") {
            // The base must come first so the file reads
            // top-to-bottom as "inherit, then override" — later
            // keys replace the inherited values wholesale.
            fatalIf(!seen.empty(),
                    "parseScenario: 'include' must be the first key "
                    "(line " + std::to_string(lineno) + ")");
            seen.push_back(key);
            spec = resolveInclude(value, base_dir, lookup,
                                  include_stack);
            continue;
        }
        seen.push_back(key);
        applyKey(spec, key, value);
    }
    return spec;
}

} // namespace

ScenarioSpec
parseScenario(const std::string& text)
{
    // No source file: includes resolve against the working directory.
    std::vector<std::string> include_stack;
    return parseScenarioImpl(text, "", nullptr, include_stack);
}

ScenarioSpec
parseScenario(const std::string& text, const std::string& self,
              ScenarioIncludeLookup lookup)
{
    std::vector<std::string> include_stack{self};
    return parseScenarioImpl(text, "", lookup, include_stack);
}

ScenarioSpec
parseScenarioFile(const std::string& path)
{
    std::ifstream in(path);
    fatalIf(!in, "parseScenarioFile: cannot open '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();

    std::error_code ec;
    std::filesystem::path canon =
        std::filesystem::weakly_canonical(path, ec);
    std::vector<std::string> include_stack;
    include_stack.push_back(ec ? path : canon.string());
    return parseScenarioImpl(
        text.str(),
        std::filesystem::path(path).parent_path().string(), nullptr,
        include_stack);
}

std::string
serializeScenario(const ScenarioSpec& spec)
{
    std::string out;
    for (const SpecKey& key : kSpecKeys) {
        std::string value = key.print(spec);
        // The file grammar has no quoting: '#' starts a comment and
        // a newline ends the value, so neither may appear in an
        // emitted value or the parse->serialize->parse identity
        // silently breaks.
        if (value.find_first_of("#\n") != std::string::npos)
            fatal("serializeScenario: '" + std::string(key.name) +
                  "' value contains '#' or a newline, which the "
                  "scenario-file grammar cannot represent: '" + value +
                  "'");
        out += key.name;
        out += value.empty() ? " =" : " = " + value;
        out += "\n";
    }
    return out;
}

void
validateScenario(const ScenarioSpec& spec)
{
    const std::string where = "scenario '" + spec.name + "': ";
    fatalIf(spec.workloads.empty(),
            where + "needs at least one workload panel");
    fatalIf(spec.arrivals.empty(),
            where + "needs at least one arrival process");
    fatalIf(spec.sloMultipliers.empty(),
            where + "needs at least one SLO multiplier");
    fatalIf(spec.schedulers.empty(),
            where + "needs at least one scheduler");
    fatalIf(spec.requests <= 0, where + "requests must be positive");
    fatalIf(spec.seeds <= 0, where + "seeds must be positive");
    fatalIf(spec.samples <= 0, where + "samples must be positive");
    for (double slo : spec.sloMultipliers)
        fatalIf(!(slo > 0.0) || !std::isfinite(slo),
                where + "SLO multipliers must be positive and finite");
    fatalIf(spec.onFailure != "restart" && spec.onFailure != "shed",
            where + "on_failure must be 'restart' or 'shed', got '" +
                spec.onFailure + "'");
    fatalIf(spec.admissionMargins.empty(),
            where + "needs at least one admission margin");
    for (double margin : spec.admissionMargins)
        fatalIf(!(margin > 0.0) || !std::isfinite(margin),
                where +
                    "admission margins must be positive and finite");
    for (double ratio : spec.stealRatios)
        fatalIf(!(ratio > 1.0) || !std::isfinite(ratio),
                where + "steal ratios must be > 1 and finite");
    fatalIf(!(spec.cnnSparsityRate >= 0.0 && spec.cnnSparsityRate < 1.0),
            where + "cnn_sparsity must be in [0, 1), got " +
                shortestDouble(spec.cnnSparsityRate));

    const PolicyRegistry& registry = PolicyRegistry::global();
    for (const std::string& sched : spec.schedulers)
        registry.requireScheduler(sched);
    for (const std::string& arrival : spec.arrivals)
        registry.makeArrival(arrival);
    for (const std::string& probe : spec.probes)
        registry.requireEstimator(probe);

    // Resilience specs parse strictly whether or not they end up
    // used; the parsers fatal() naming the malformed parameter.
    BrownoutConfig brownout = brownoutConfigFromSpec(spec.brownout);
    retryConfigFromSpec(spec.retry);
    hedgeConfigFromSpec(spec.hedge);
    tierWeightsFromSpec(spec.tiers);
    for (const std::string& batcher : spec.batchers)
        if (batcher != "none")
            batchConfigFromSpec(batcher); // validates params
    fatalIf(brownout.enabled && !spec.admission,
            where + "'brownout' requires 'admission = 1'");

    if (!spec.cluster()) {
        // Single-accelerator scenarios have no front end: every
        // cluster-only key must stay as a default spec prints it.
        const ScenarioSpec defaults;
        for (const SpecKey& key : kSpecKeys)
            if (key.clusterOnly && key.print(spec) != key.print(defaults))
                fatal(where + "'" + key.name + "' requires a 'fleet'");
        return;
    }

    fatalIf(spec.dispatchers.empty(),
            where + "cluster scenarios need at least one dispatcher");
    for (const std::string& disp : spec.dispatchers)
        registry.requireDispatcher(disp);
    if (!spec.admissionEstimator.empty())
        registry.requireEstimator(spec.admissionEstimator);
    // Scripted events must name a node of every fleet on the axis;
    // the run itself would only die after the Phase-1 profile.
    std::vector<NodeEvent> events = nodeEventsFromSpec(spec.events);
    for (const std::string& fleet : spec.fleets) {
        // fleetFromSpec validates classes and counts.
        size_t size = fleetFromSpec(fleet).size();
        for (const NodeEvent& ev : events) {
            if (static_cast<size_t>(ev.node) < size)
                continue;
            std::ostringstream name;
            name << (ev.kind == NodeEventKind::Drain  ? "drain"
                     : ev.kind == NodeEventKind::Fail ? "fail"
                                                      : "recover")
                 << '@' << ev.time << ':' << ev.node;
            fatal(where + "event '" + name.str() + "' targets node " +
                  std::to_string(ev.node) + ", but fleet '" + fleet +
                  "' has " + std::to_string(size) + " nodes");
        }
    }
    for (const std::string& chaos : spec.chaos)
        if (chaos != "none")
            registry.makeFailureProcess(chaos); // validates params
}

BenchSetup
scenarioSetup(const ScenarioSpec& spec)
{
    BenchSetup setup;
    setup.samplesPerModel = spec.samples;
    setup.seed = spec.profileSeed;
    setup.cnnSparsityRate = spec.cnnSparsityRate;
    setup.includeAttnn = false;
    setup.includeCnn = false;
    for (const WorkloadPanel& panel : spec.workloads) {
        if (panel.kind == WorkloadKind::MultiCNN)
            setup.includeCnn = true;
        else
            setup.includeAttnn = true;
    }
    return setup;
}

namespace {

/**
 * Enumerate the grid points of a scenario in canonical order —
 * workload, arrival, slo, fleet, dispatcher, admission margin,
 * steal ratio, chaos, batcher, scheduler (seeds are expanded by the
 * caller). Both the cell expansion and the result regrouping iterate
 * through this ONE function, so row labels can never drift out of
 * step with cell results. Cluster axes collapse to a single empty
 * slot on single-accelerator grids; an absent steal_ratio axis
 * collapses to the -1 sentinel (dispatcher default); absent chaos
 * and batcher axes collapse to the empty spec (feature off).
 */
template <typename Fn>
void
forEachGridPoint(const ScenarioSpec& spec, Fn&& fn)
{
    const std::vector<std::string> none = {""};
    const std::vector<double> default_steal = {-1.0};
    const std::vector<std::string>& fleets =
        spec.cluster() ? spec.fleets : none;
    const std::vector<std::string>& dispatchers =
        spec.cluster() ? spec.dispatchers : none;
    const std::vector<double>& steals =
        spec.stealRatios.empty() ? default_steal : spec.stealRatios;
    const std::vector<std::string>& chaoses =
        spec.chaos.empty() ? none : spec.chaos;
    const std::vector<std::string>& batchers =
        spec.batchers.empty() ? none : spec.batchers;

    for (const WorkloadPanel& panel : spec.workloads)
      for (const std::string& arrival : spec.arrivals)
        for (double slo : spec.sloMultipliers)
          for (const std::string& fleet : fleets)
            for (const std::string& disp : dispatchers)
              for (double margin : spec.admissionMargins)
                for (double steal : steals)
                  for (const std::string& chaos : chaoses)
                    for (const std::string& batcher : batchers)
                      for (const std::string& sched : spec.schedulers)
                        fn(panel, arrival, slo, fleet, disp, margin,
                           steal, chaos, batcher, sched);
}

} // namespace

std::vector<SweepCell>
scenarioCells(const ScenarioSpec& spec)
{
    const PolicyRegistry& registry = PolicyRegistry::global();
    std::vector<SweepCell> cells;
    forEachGridPoint(spec, [&](const WorkloadPanel& panel,
                               const std::string& arrival, double slo,
                               const std::string& fleet,
                               const std::string& disp, double margin,
                               double steal, const std::string& chaos,
                               const std::string& batcher,
                               const std::string& sched) {
        SweepCell cell;
        cell.workload.kind = panel.kind;
        cell.workload.arrivalRate = panel.rate;
        cell.workload.arrival = registry.makeArrival(arrival);
        cell.workload.sloMultiplier = slo;
        cell.workload.numRequests = spec.requests;
        cell.workload.seed = spec.seed;
        cell.probes = spec.probes;
        cell.streaming = spec.streaming;
        cell.metricsKind = spec.metricsKind;
        if (spec.cluster()) {
            cell.clusterMode = true;
            cell.cluster.nodes = fleetFromSpec(fleet);
            cell.cluster.dispatcher = disp;
            cell.cluster.nodeScheduler = sched;
            cell.cluster.admission.enabled = spec.admission;
            cell.cluster.admission.margin = margin;
            cell.cluster.admissionEstimator = spec.admissionEstimator;
            if (steal >= 0.0)
                cell.cluster.stealing.imbalanceRatio = steal;
            if (!spec.events.empty())
                cell.cluster.nodeEvents =
                    nodeEventsFromSpec(spec.events);
            cell.cluster.onFailure = spec.onFailure == "shed"
                ? RestartPolicy::Shed
                : RestartPolicy::Restart;
            // "none" is the chaos/batcher axes' off slice; the
            // engine takes the empty spec as disabled.
            if (chaos != "none")
                cell.cluster.chaos = chaos;
            if (batcher != "none")
                cell.cluster.batcher = batcher;
            cell.cluster.retry = spec.retry;
            cell.cluster.hedge = spec.hedge;
            cell.cluster.brownout = spec.brownout;
            cell.cluster.tiers = spec.tiers;
        } else {
            cell.scheduler = sched;
        }
        for (const SweepCell& replica :
             seedReplicas(cell, spec.seeds))
            cells.push_back(replica);
    });
    return cells;
}

ScenarioResult
runScenario(const ScenarioSpec& spec,
            const ScenarioRunOptions& options)
{
    validateScenario(spec);

    ScenarioResult out;

    WallTimer profile_timer;
    std::unique_ptr<BenchContext> owned;
    const BenchContext* ctx = options.ctx;
    if (ctx == nullptr) {
        owned = makeBenchContext(scenarioSetup(spec));
        ctx = owned.get();
    }
    out.profileSec = profile_timer.seconds();

    WallTimer sweep_timer;
    SweepRunner runner(*ctx, options.jobs);
    std::vector<SweepCellResult> results =
        runner.run(scenarioCells(spec), &out.cellSeconds);
    out.sweepSec = sweep_timer.seconds();

    out.spec = spec;
    out.jobs = runner.jobs();

    // Regroup the flat result vector through the same enumerator
    // that emitted the cells; seed replicas are contiguous.
    size_t index = 0;
    std::vector<Metrics> group(static_cast<size_t>(spec.seeds));
    forEachGridPoint(spec, [&](const WorkloadPanel& panel,
                               const std::string& arrival, double slo,
                               const std::string& fleet,
                               const std::string& disp, double margin,
                               double steal, const std::string& chaos,
                               const std::string& batcher,
                               const std::string& sched) {
        ScenarioRow row;
        row.workload = panel.label();
        row.arrival = arrival;
        row.slo = slo;
        row.fleet = fleet;
        row.dispatcher = disp;
        row.admissionMargin = margin;
        row.stealRatio = steal;
        row.chaos = chaos;
        row.batcher = batcher;
        row.scheduler = sched;
        for (int s = 0; s < spec.seeds; ++s) {
            const SweepCellResult& r = results[index++];
            group[static_cast<size_t>(s)] = r.metrics;
            row.decisions += static_cast<double>(r.decisions);
            row.preemptions += static_cast<double>(r.preemptions);
        }
        row.metrics = averageMetrics(group);
        row.decisions /= spec.seeds;
        row.preemptions /= spec.seeds;
        out.rows.push_back(std::move(row));
    });
    panicIf(index != results.size(),
            "runScenario: grid expansion and regrouping disagree");
    return out;
}

} // namespace dysta
