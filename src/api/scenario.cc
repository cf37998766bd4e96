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
    size_t pos = 0;
    while (pos <= value.size()) {
        size_t bar = value.find('|', pos);
        std::string item = trimmed(value.substr(
            pos, bar == std::string::npos ? std::string::npos
                                          : bar - pos));
        fatalIf(item.empty(), "parseScenario: empty element in the '" +
                                  key + "' list");
        out.push_back(item);
        if (bar == std::string::npos)
            break;
        pos = bar + 1;
    }
    return out;
}

double
parseDoubleStrict(const std::string& key, const std::string& text)
{
    double v = 0.0;
    fatalIf(!tryParseDouble(text, v),
            "parseScenario: '" + key + "' expects a number, got '" +
                text + "'");
    return v;
}

int
parseIntStrict(const std::string& key, const std::string& text)
{
    int v = 0;
    fatalIf(!tryParseInt(text, v),
            "parseScenario: '" + key + "' expects an integer, got '" +
                text + "'");
    return v;
}

uint64_t
parseU64Strict(const std::string& key, const std::string& text)
{
    uint64_t v = 0;
    fatalIf(!tryParseU64(text, v),
            "parseScenario: '" + key +
                "' expects a non-negative integer, got '" + text + "'");
    return v;
}

bool
parseBoolStrict(const std::string& key, const std::string& text)
{
    bool v = false;
    fatalIf(!tryParseBool(text, v),
            "parseScenario: '" + key +
                "' expects 0/1/true/false, got '" + text + "'");
    return v;
}

std::string
kindShortName(WorkloadKind kind)
{
    return kind == WorkloadKind::MultiCNN ? "cnn" : "attnn";
}

WorkloadKind
kindFromShortName(const std::string& name)
{
    if (name == "attnn" || name == "multi-attnn")
        return WorkloadKind::MultiAttNN;
    if (name == "cnn" || name == "multi-cnn")
        return WorkloadKind::MultiCNN;
    fatal("workloadPanelFromSpec: unknown workload kind '" + name +
          "'; valid kinds: attnn, cnn");
}

/** The scenario-file keys, in canonical serialization order. */
const char* const kScenarioKeys[] = {
    "include",    "name",            "workload",
    "arrival",    "slo",             "scheduler",
    "fleet",      "dispatcher",      "requests",
    "seeds",      "seed",            "events",
    "admission",  "admission_margin", "steal_ratio",
    "admission_estimator", "on_failure",
    "chaos",      "retry",           "hedge",
    "brownout",   "tiers",           "batcher",
    "probes",     "samples",         "profile_seed",
    "cnn_sparsity", "streaming",     "metrics",
    "calendar",
};

std::string
validKeyList()
{
    return joinComma(std::vector<std::string>(
        std::begin(kScenarioKeys), std::end(kScenarioKeys)));
}

void
applyKey(ScenarioSpec& spec, const std::string& key,
         const std::string& value)
{
    if (key == "name") {
        fatalIf(value.empty(), "parseScenario: 'name' must not be "
                               "empty");
        spec.name = value;
    } else if (key == "workload") {
        spec.workloads.clear();
        for (const std::string& item : splitAxis(key, value))
            spec.workloads.push_back(workloadPanelFromSpec(item));
    } else if (key == "arrival") {
        spec.arrivals = splitAxis(key, value);
    } else if (key == "slo") {
        spec.sloMultipliers.clear();
        for (const std::string& item : splitAxis(key, value))
            spec.sloMultipliers.push_back(
                parseDoubleStrict(key, item));
    } else if (key == "scheduler") {
        spec.schedulers = splitAxis(key, value);
    } else if (key == "fleet") {
        spec.fleets = splitAxis(key, value);
    } else if (key == "dispatcher") {
        spec.dispatchers = splitAxis(key, value);
    } else if (key == "requests") {
        spec.requests = parseIntStrict(key, value);
    } else if (key == "seeds") {
        spec.seeds = parseIntStrict(key, value);
    } else if (key == "seed") {
        spec.seed = parseU64Strict(key, value);
    } else if (key == "events") {
        spec.events = value;
    } else if (key == "admission") {
        spec.admission = parseBoolStrict(key, value);
    } else if (key == "admission_margin") {
        spec.admissionMargins.clear();
        for (const std::string& item : splitAxis(key, value))
            spec.admissionMargins.push_back(
                parseDoubleStrict(key, item));
        fatalIf(spec.admissionMargins.empty(),
                "parseScenario: 'admission_margin' needs at least "
                "one value");
    } else if (key == "steal_ratio") {
        spec.stealRatios.clear();
        for (const std::string& item : splitAxis(key, value))
            spec.stealRatios.push_back(parseDoubleStrict(key, item));
    } else if (key == "admission_estimator") {
        spec.admissionEstimator = value;
    } else if (key == "on_failure") {
        spec.onFailure = value;
    } else if (key == "chaos") {
        spec.chaos = splitAxis(key, value);
    } else if (key == "retry") {
        spec.retry = value;
    } else if (key == "hedge") {
        spec.hedge = value;
    } else if (key == "brownout") {
        spec.brownout = value;
    } else if (key == "tiers") {
        spec.tiers = value;
    } else if (key == "batcher") {
        spec.batchers = splitAxis(key, value);
    } else if (key == "probes") {
        spec.probes = splitAxis(key, value);
    } else if (key == "samples") {
        spec.samples = parseIntStrict(key, value);
    } else if (key == "profile_seed") {
        spec.profileSeed = parseU64Strict(key, value);
    } else if (key == "cnn_sparsity") {
        spec.cnnSparsityRate = parseDoubleStrict(key, value);
    } else if (key == "streaming") {
        spec.streaming = parseBoolStrict(key, value);
    } else if (key == "metrics") {
        spec.metricsKind = metricsKindFromName(value);
    } else if (key == "calendar") {
        spec.calendar = calendarKindFromName(value);
    } else {
        fatal("parseScenario: unknown key '" + key +
              "'; valid keys: " + validKeyList());
    }
}

template <typename T, typename Fn>
std::string
joinAxis(const std::vector<T>& items, Fn to_string)
{
    std::string out;
    for (const T& item : items)
        out += (out.empty() ? "" : " | ") + to_string(item);
    return out;
}

} // namespace

std::string
WorkloadPanel::label() const
{
    return kindShortName(kind) + "@" + shortestDouble(rate);
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
    panel.kind = kindFromShortName(spec.substr(0, at));
    panel.rate = parseDoubleStrict("workload", spec.substr(at + 1));
    fatalIf(panel.rate <= 0.0,
            "workloadPanelFromSpec: rate must be positive in '" + spec +
                "'");
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
    auto identity = [](const std::string& s) { return s; };
    std::string out;
    auto kv = [&out](const std::string& key,
                     const std::string& value) {
        // The file grammar has no quoting: '#' starts a comment and
        // a newline ends the value, so neither may appear in an
        // emitted value or the parse->serialize->parse identity
        // silently breaks.
        fatalIf(value.find_first_of("#\n") != std::string::npos,
                "serializeScenario: '" + key + "' value contains '#' "
                "or a newline, which the scenario-file grammar "
                "cannot represent: '" + value + "'");
        out += key;
        out += value.empty() ? " =" : " = " + value;
        out += "\n";
    };
    kv("name", spec.name);
    kv("workload",
       joinAxis(spec.workloads,
                [](const WorkloadPanel& p) { return p.label(); }));
    kv("arrival", joinAxis(spec.arrivals, identity));
    kv("slo", joinAxis(spec.sloMultipliers,
                       [](double v) { return shortestDouble(v); }));
    kv("scheduler", joinAxis(spec.schedulers, identity));
    kv("fleet", joinAxis(spec.fleets, identity));
    kv("dispatcher", joinAxis(spec.dispatchers, identity));
    kv("requests", std::to_string(spec.requests));
    kv("seeds", std::to_string(spec.seeds));
    kv("seed", std::to_string(spec.seed));
    kv("events", spec.events);
    kv("admission", spec.admission ? "1" : "0");
    kv("admission_margin",
       joinAxis(spec.admissionMargins,
                [](double v) { return shortestDouble(v); }));
    kv("steal_ratio",
       joinAxis(spec.stealRatios,
                [](double v) { return shortestDouble(v); }));
    kv("admission_estimator", spec.admissionEstimator);
    kv("on_failure", spec.onFailure);
    kv("chaos", joinAxis(spec.chaos, identity));
    kv("retry", spec.retry);
    kv("hedge", spec.hedge);
    kv("brownout", spec.brownout);
    kv("tiers", spec.tiers);
    kv("batcher", joinAxis(spec.batchers, identity));
    kv("probes", joinAxis(spec.probes, identity));
    kv("samples", std::to_string(spec.samples));
    kv("profile_seed", std::to_string(spec.profileSeed));
    kv("cnn_sparsity", shortestDouble(spec.cnnSparsityRate));
    kv("streaming", spec.streaming ? "1" : "0");
    kv("metrics", toString(spec.metricsKind));
    kv("calendar", toString(spec.calendar));
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
        fatalIf(!spec.dispatchers.empty(),
                where + "'dispatcher' requires a 'fleet' (single-"
                        "accelerator scenarios have no front-end)");
        fatalIf(!spec.events.empty(),
                where + "'events' requires a 'fleet'");
        fatalIf(spec.admission,
                where + "'admission' requires a 'fleet'");
        fatalIf(!spec.admissionEstimator.empty(),
                where + "'admission_estimator' requires a 'fleet'");
        fatalIf(spec.admissionMargins.size() > 1,
                where + "an 'admission_margin' axis requires a "
                        "'fleet'");
        fatalIf(!spec.stealRatios.empty(),
                where + "'steal_ratio' requires a 'fleet'");
        fatalIf(!spec.chaos.empty(),
                where + "'chaos' requires a 'fleet'");
        fatalIf(!spec.batchers.empty(),
                where + "'batcher' requires a 'fleet'");
        fatalIf(!spec.retry.empty() || !spec.hedge.empty() ||
                    !spec.brownout.empty() || !spec.tiers.empty(),
                where + "'retry'/'hedge'/'brownout'/'tiers' require "
                        "a 'fleet'");
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
        cell.calendar = spec.calendar;
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
        owned = makeBenchContext(scenarioSetup(spec),
                                 options.traceCache);
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
