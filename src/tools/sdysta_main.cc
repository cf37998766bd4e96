/**
 * @file
 * `sdysta` — the scenario driver.
 *
 * Runs any declarative scenario file end to end: parse, validate,
 * Phase-1 profile (or trace-cache replay), grid execution on the
 * thread-pooled SweepRunner, long-format result table, and a
 * unified JSON + CSV report. The built-in scenario names (shipped as
 * scenarios/<name>.scn) are accepted in place of a path.
 *
 * Usage:
 *   sdysta scenarios/tab05.scn --jobs 4 --trace-cache .cache
 *   sdysta fig12 --requests 100 --seeds 1
 *   sdysta scenarios/hetero-failover.scn --chrome-trace trace.json
 *   sdysta scenarios/hetero-failover.scn --gantt --cell 1
 *   sdysta --diff a.json b.json
 *   sdysta --list-policies
 *   sdysta --list-scenarios
 *   sdysta scenarios/tab05.scn --print-spec
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "api/diff.hh"
#include "api/registry.hh"
#include "api/report.hh"
#include "api/scenario.hh"
#include "exp/gantt.hh"
#include "obs/chrome_trace.hh"
#include "obs/phase_timer.hh"
#include "obs/telemetry.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/table.hh"

using namespace dysta;

namespace {

void
printPolicyGroup(const std::string& title,
                 const std::vector<PolicyInfo>& rows)
{
    AsciiTable table(title);
    table.setHeader({"name", "parameters", "description"});
    for (const PolicyInfo& row : rows)
        table.addRow({row.name,
                      row.params.empty() ? "-" : row.params,
                      row.description});
    table.print();
}

/** One-line summaries of the built-in scenarios. */
std::string
builtinScenarioDescription(const std::string& name)
{
    if (name == "fig12")
        return "ANTT / SLO-violation trade-off plane";
    if (name == "fig14")
        return "robustness across latency SLOs";
    if (name == "fig15")
        return "robustness across arrival rates";
    if (name == "tab05")
        return "end-to-end ANTT and violation rates";
    if (name == "cluster-scaling")
        return "fleet size x dispatcher x arrival process";
    if (name == "hetero-cluster")
        return "homogeneous vs mixed fleets under bursty traffic";
    if (name == "hetero-failover")
        return "scripted fail/recover on a mixed fleet";
    if (name == "megascale")
        return "streaming 10M-request endurance run";
    if (name == "chaos")
        return "stochastic faults + retry/hedging/brown-out stack";
    if (name == "batching")
        return "dynamic batching: composition policies vs unbatched";
    return "";
}

/**
 * First comment line of a scenario file's leading comment block, as
 * its description. Only lines that start with '#' count; the scan
 * stops at the first key line, so a trailing `# note` after a key is
 * never taken for the description.
 */
std::string
scenarioFileSummary(const std::filesystem::path& path)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        if (line[first] != '#')
            break;
        size_t begin = line.find_first_not_of(" \t", first + 1);
        if (begin != std::string::npos) {
            size_t end = line.find_last_not_of(" \t\r");
            return line.substr(begin, end - begin + 1);
        }
    }
    return "";
}

void
listScenarios()
{
    AsciiTable builtins("Built-in scenarios (runnable by name)");
    builtins.setHeader({"name", "description"});
    for (const std::string& name : builtinScenarioNames())
        builtins.addRow({name, builtinScenarioDescription(name)});
    builtins.print();

    std::error_code ec;
    std::filesystem::directory_iterator dir("scenarios", ec);
    if (ec) {
        std::printf("(no scenarios/ directory here)\n");
        return;
    }
    std::vector<std::filesystem::path> files;
    for (const auto& entry : dir) {
        if (entry.path().extension() == ".scn")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    if (files.empty())
        return;
    AsciiTable table("Scenario files (scenarios/*.scn)");
    table.setHeader({"file", "description"});
    for (const std::filesystem::path& path : files)
        table.addRow({path.string(), scenarioFileSummary(path)});
    table.print();
}

/** Display names of the nodes a cell serves on. */
std::vector<std::string>
cellNodeNames(const SweepCell& cell)
{
    if (!cell.clusterMode)
        return {"accel"};
    // fleetFromSpec already numbers nodes uniquely per class.
    std::vector<std::string> names;
    for (const NodeProfile& node : cell.cluster.nodes)
        names.push_back(node.name);
    return names;
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("sdysta",
                   "Run a declarative Sparse-DySta scenario file: "
                   "workload mix, arrival process, fleet, policies "
                   "and sweep axes all come from the scenario; this "
                   "driver only executes it and reports.");
    args.addPositional("scenario",
                       "scenario file path, or a built-in name "
                       "(see --list-scenarios); first report "
                       "file with --diff",
                       /*required=*/false);
    args.addPositional("report_b",
                       "second report file (--diff only)",
                       /*required=*/false);
    args.addInt("--requests", 0,
                "override the scenario's request count (0 = keep)");
    args.addInt("--seeds", 0,
                "override the scenario's seed replicas (0 = keep)");
    args.addInt("--samples", 0,
                "override the Phase-1 samples per model (0 = keep)");
    args.addString("--streaming", "",
                   "override the scenario's execution mode: 'on' "
                   "pulls requests lazily (flat RSS), 'off' "
                   "materializes the workload ('' = keep)");
    args.addString("--calendar", "",
                   "override the event-calendar implementation: "
                   "'heap' or 'bucket' ('' = keep)");
    args.addJobs();
    args.addTraceCache();
    args.addString("--out", "",
                   "report path (default: REPORT_<name>.json; a .csv "
                   "twin is always written next to it)");
    args.addString("--chrome-trace", "",
                   "re-run one grid cell with full telemetry and "
                   "write a Chrome/Perfetto trace JSON");
    args.addString("--series-csv", "",
                   "write the traced cell's per-node queue-depth/"
                   "busy time series CSV");
    args.addSwitch("--gantt",
                   "print the traced cell's per-node ASCII Gantt "
                   "chart");
    args.addInt("--cell", 0,
                "grid cell index (seed replicas included) to trace "
                "for --chrome-trace/--gantt/--series-csv");
    args.addInt("--trace-events", 0,
                "cap the traced cell's telemetry to the most recent "
                "N events per channel (ring buffer; 0 = unbounded), "
                "so --chrome-trace works on megascale runs");
    args.addSwitch("--diff",
                   "compare two report JSON files modulo their "
                   "'meta' sections and exit (1 when they differ)");
    args.addSwitch("--list-policies",
                   "print the policy registry tables and exit");
    args.addSwitch("--list-scenarios",
                   "list the built-in scenarios and any "
                   "scenarios/*.scn files, with descriptions, and "
                   "exit");
    args.addSwitch("--print-spec",
                   "print the canonical scenario form and exit");
    args.parse(argc, argv);

    if (args.getBool("--list-policies")) {
        const PolicyRegistry& registry = PolicyRegistry::global();
        printPolicyGroup("Schedulers (per-node policies)",
                         registry.schedulerTable());
        printPolicyGroup("Dispatchers (cluster front-ends)",
                         registry.dispatcherTable());
        printPolicyGroup("Estimators", registry.estimatorTable());
        printPolicyGroup("Arrival processes",
                         registry.arrivalTable());
        printPolicyGroup("Failure processes (chaos engine)",
                         registry.failureProcessTable());
        return 0;
    }

    if (args.getBool("--list-scenarios")) {
        listScenarios();
        return 0;
    }

    if (args.getBool("--diff")) {
        const std::string& a = args.positional("scenario");
        const std::string& b = args.positional("report_b");
        fatalIf(a.empty() || b.empty(),
                "sdysta: --diff needs two report files: "
                "sdysta --diff a.json b.json");
        return runReportDiff(a, b);
    }

    const std::string& source = args.positional("scenario");
    fatalIf(source.empty(),
            "sdysta: missing scenario file (--help for usage)");

    // Anything path-shaped must be a readable file: silently falling
    // through to builtin-name lookup would turn a typo'd path into a
    // misleading "unknown scenario" error.
    bool path_like = source.find('/') != std::string::npos ||
                     (source.size() > 4 &&
                      source.substr(source.size() - 4) == ".scn");
    ScenarioSpec spec;
    if (std::filesystem::is_regular_file(source)) {
        spec = parseScenarioFile(source);
    } else if (path_like) {
        fatal("sdysta: cannot open scenario file '" + source + "'");
    } else {
        // Convenience: accept built-in names directly.
        spec = builtinScenario(source);
    }

    // 0 keeps the scenario's own count; a negative one is an error,
    // never a silent "keep".
    auto overrideCount = [&args](const std::string& flag, int& field) {
        int value = args.getInt(flag);
        fatalIf(value < 0, "sdysta: " + flag +
                               " must not be negative, got " +
                               std::to_string(value));
        if (value > 0)
            field = value;
    };
    overrideCount("--requests", spec.requests);
    overrideCount("--seeds", spec.seeds);
    overrideCount("--samples", spec.samples);
    const std::string streaming = args.getString("--streaming");
    if (!streaming.empty()) {
        bool on = false;
        fatalIf(!tryParseBool(streaming == "on" ? "1"
                              : streaming == "off" ? "0"
                                                   : streaming,
                              on),
                "sdysta: --streaming expects on/off, got '" +
                    streaming + "'");
        spec.streaming = on;
    }
    if (!args.getString("--calendar").empty())
        spec.calendar =
            calendarKindFromName(args.getString("--calendar"));

    if (args.getBool("--print-spec")) {
        std::printf("%s", serializeScenario(spec).c_str());
        return 0;
    }

    validateScenario(spec);

    ScenarioRunOptions options;
    options.jobs = args.getInt("--jobs");
    fatalIf(options.jobs < 0,
            "sdysta: --jobs must not be negative, got " +
                std::to_string(options.jobs));
    options.traceCache = args.getString("--trace-cache");

    const std::string chrome_out = args.getString("--chrome-trace");
    const std::string series_out = args.getString("--series-csv");
    bool want_trace = args.getBool("--gantt") ||
                      !chrome_out.empty() || !series_out.empty();

    // The traced cell's flags are checked before the sweep runs, not
    // after it.
    std::vector<SweepCell> cells = scenarioCells(spec);
    int traced = args.getInt("--cell");
    int trace_events = args.getInt("--trace-events");
    if (want_trace) {
        fatalIf(traced < 0 ||
                    static_cast<size_t>(traced) >= cells.size(),
                "sdysta: --cell " + std::to_string(traced) +
                    " out of range (scenario has " +
                    std::to_string(cells.size()) + " cells)");
        fatalIf(trace_events < 0,
                "sdysta: --trace-events must be >= 0");
    }

    // The trace exports re-run one cell after the sweep, so when any
    // is requested the Phase-1 context is built here and shared.
    std::unique_ptr<BenchContext> ctx;
    double profile_sec = 0.0;
    if (want_trace) {
        WallTimer profile_timer;
        ctx = makeBenchContext(scenarioSetup(spec),
                               options.traceCache);
        profile_sec = profile_timer.seconds();
        options.ctx = ctx.get();
    }

    std::printf("Running scenario '%s' (%zu grid cells) on %d "
                "thread%s...\n",
                spec.name.c_str(), cells.size(),
                options.jobs, options.jobs == 1 ? "" : "s");
    ScenarioResult result = runScenario(spec, options);
    if (want_trace)
        result.profileSec = profile_sec;
    printScenarioTable(result);

    if (want_trace) {
        TelemetryConfig tele_cfg;
        tele_cfg.maxEvents = static_cast<size_t>(trace_events);
        Telemetry telemetry(tele_cfg);
        const PolicyRegistry& registry = PolicyRegistry::global();
        for (const std::string& probe : spec.probes)
            telemetry.addProbe(probe,
                               registry.makeEstimator(probe, *ctx));

        SweepCell cell = cells[static_cast<size_t>(traced)];
        cell.telemetry = &telemetry;
        std::printf("Re-running cell %d of %zu with full "
                    "telemetry...\n",
                    traced, cells.size());
        runSweepCell(*ctx, cell);

        std::vector<std::string> node_names = cellNodeNames(cell);
        printTelemetrySummary(telemetry, node_names);
        if (args.getBool("--gantt"))
            std::printf("%s",
                        renderTelemetryGantt(telemetry, node_names)
                            .c_str());
        if (!chrome_out.empty()) {
            writeChromeTrace(telemetry, node_names, chrome_out);
            std::printf("Wrote %s\n", chrome_out.c_str());
        }
        if (!series_out.empty()) {
            writeTimeSeriesCsv(telemetry, series_out);
            std::printf("Wrote %s\n", series_out.c_str());
        }
    }

    Reporter report("sdysta");
    report.meta("scenario_source", source);
    report.meta("jobs", result.jobs);
    report.meta("trace_cache", options.traceCache);
    report.meta("profile_sec", result.profileSec);
    report.meta("sweep_sec", result.sweepSec);
    double cell_total = 0.0;
    double cell_max = 0.0;
    std::string cell_list;
    for (double sec : result.cellSeconds) {
        cell_total += sec;
        cell_max = cell_max > sec ? cell_max : sec;
        cell_list +=
            (cell_list.empty() ? "" : ",") + shortestDouble(sec);
    }
    report.meta("cell_sec_total", cell_total);
    report.meta("cell_sec_max", cell_max);
    report.meta("cell_seconds", cell_list);
    report.add(result);

    std::string out = args.getString("--out");
    if (out.empty())
        out = "REPORT_" + spec.name + ".json";
    report.writeJson(out);
    std::string csv_out = out;
    if (csv_out.size() > 5 &&
        csv_out.substr(csv_out.size() - 5) == ".json")
        csv_out.resize(csv_out.size() - 5);
    csv_out += ".csv";
    report.writeCsv(csv_out);
    return 0;
}
