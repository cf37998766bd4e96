/**
 * @file
 * perfbench: the repository benchmark program.
 *
 * Runs one of four pinned workloads (perfbench/workloads/NAME.scn,
 * each a checked-in scenario at a pinned size) through the simulator
 * library and prints its end-to-end metrics (tracing off) or its
 * per-module metrics (tracing on) by name, ending with one JSON line:
 *
 *     perfbench --workload tab05 --seed 42 --seconds 15 --trace 0
 *
 * Two grids of cells per run:
 *  - the timed grid, at the workload seed `--seed` (default: the
 *    scenario's own): set up several times (scenario parse plus a
 *    cold Phase-1 profile), then executed on the exp/ SweepRunner
 *    again and again for `--seconds`; host metrics are medians;
 *  - the pinned grid, at the scenario's own seed, executed once and
 *    untimed: it must match the committed golden digest
 *    (perfbench/golden/) bit for bit, and the simulated (sim_*)
 *    metrics are pooled over it, so they repeat exactly and move only
 *    when a change moves simulated results.
 *
 * Every repetition of the timed grid must reproduce the first bit for
 * bit, and every traced cell its untraced twin. Each mismatch or
 * crash is a failed cell.
 *
 * Other modes: `--self-test` (goldens, traced fidelity and tab05's
 * jobs-independence, outside any measured run) and `--write-golden`
 * (re-record the goldens after an intended change of simulated
 * results).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/scenario.hh"
#include "digest.hh"
#include "obs/phase_timer.hh"
#include "tracing.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace perfbench {

using namespace dysta;

namespace {

/** Workload files under the workload directory, without ".scn". */
const char* const kWorkloads[] = {"megascale", "tab05", "batching",
                                  "chaos"};

/** SweepRunner workers of every grid. */
constexpr int kJobs = 2;

/** The policies of tab05, for the per-policy pick split. */
const char* const kPolicies[] = {"FCFS",    "SJF",      "SDRM3",
                                 "PREMA",   "Planaria", "Dysta",
                                 "Oracle",  "Dysta-HW"};

/**
 * Set-ups per run; setup_s and trace.profile_s are their medians.
 * Each starts after a short pause, from an idle CPU as a fresh
 * process does: on a shared machine, back-to-back set-ups can lock
 * onto one of its speed modes for seconds, and the median of a run
 * then reads one mode or the other.
 */
constexpr int kSetups = 30;
constexpr auto kSetupPause = std::chrono::milliseconds(50);

struct Options
{
    std::string workload;
    bool haveSeed = false;
    uint64_t seed = 0;
    double seconds = 15.0;
    bool trace = false;
    std::string workloadDir = "perfbench/workloads";
    std::string goldenDir = "perfbench/golden";
    bool selfTest = false;
    bool writeGolden = false;
};

[[noreturn]] void
usage(const std::string& error)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                 [--workload-dir DIR] "
                 "[--golden-dir DIR]\n"
                 "       perfbench --self-test | --write-golden "
                 "[--workload NAME]\n"
                 "workloads: megascale tab05 batching chaos\n",
                 error.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opt.workload = value();
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value());
                opt.haveSeed = true;
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value());
            } else if (arg == "--trace") {
                opt.trace = value() != "0";
            } else if (arg == "--workload-dir") {
                opt.workloadDir = value();
            } else if (arg == "--golden-dir") {
                opt.goldenDir = value();
            } else if (arg == "--self-test") {
                opt.selfTest = true;
            } else if (arg == "--write-golden") {
                opt.writeGolden = true;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + arg);
        }
    }
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    if (!opt.workload.empty() &&
        std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const char* w) { return opt.workload == w; }) ==
            std::end(kWorkloads))
        usage("unknown workload '" + opt.workload + "'");
    return opt;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Index of the median element (lower median for even counts). */
size_t
medianIndex(const std::vector<double>& v)
{
    std::vector<size_t> order(v.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return v[a] < v[b]; });
    return order[(order.size() - 1) / 2];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Peak resident set of this process (VmHWM), MB. Not getrusage's
 * ru_maxrss: Linux carries that across exec, so it can report the
 * launching process's footprint instead of this one's.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** A workload ready to run: its two grids and Phase-1 context. */
struct Setup
{
    std::string name;
    ScenarioSpec spec;
    std::unique_ptr<BenchContext> ctx;
    /** The grid at the requested seed: what the timed runs execute. */
    std::vector<SweepCell> cells;
    /** The grid at the scenario's own seed: what the golden pins. */
    std::vector<SweepCell> pinnedCells;
    uint64_t pinnedSeed = 0;
    std::vector<double> setupSec;
    std::vector<double> profileSec;

    bool atPinnedSeed() const { return spec.seed == pinnedSeed; }
};

/**
 * Parse, validate and profile the workload `repeats` times from
 * scratch (no trace cache), timing each set-up; keep the first. The
 * workload seed only picks the arrivals, so both grids share the
 * Phase-1 context.
 */
Setup
setUp(const std::string& name, const Options& opt, int repeats)
{
    Setup s;
    s.name = name;
    for (int i = 0; i < repeats; ++i) {
        std::this_thread::sleep_for(kSetupPause);
        WallTimer total;
        ScenarioSpec spec =
            parseScenarioFile(opt.workloadDir + "/" + name + ".scn");
        s.pinnedSeed = spec.seed;
        if (opt.haveSeed)
            spec.seed = opt.seed;
        validateScenario(spec);
        WallTimer profile;
        std::unique_ptr<BenchContext> ctx =
            makeBenchContext(scenarioSetup(spec));
        s.profileSec.push_back(profile.seconds());
        s.setupSec.push_back(total.seconds());
        if (!s.ctx) {
            s.ctx = std::move(ctx);
            s.spec = std::move(spec);
        }
    }
    s.cells = scenarioCells(s.spec);
    ScenarioSpec pinned = s.spec;
    pinned.seed = s.pinnedSeed;
    s.pinnedCells = scenarioCells(pinned);
    return s;
}

/** One execution of a grid. */
struct GridRun
{
    std::vector<SweepCellResult> results;
    std::vector<double> cellSeconds;
    double wallSec = 0.0;
    /** The grid aborted with this error (every cell failed). */
    std::string error;
    /** Traced runs only: per-cell traces. */
    std::vector<CellTrace> traces;
};

GridRun
runGrid(const Setup& s, const std::vector<SweepCell>& cells, int jobs)
{
    GridRun run;
    SweepRunner runner(*s.ctx, jobs);
    WallTimer timer;
    try {
        run.results = runner.run(cells, &run.cellSeconds);
    } catch (const FatalError& e) {
        run.error = e.what();
    }
    run.wallSec = timer.seconds();
    return run;
}

GridRun
runTracedGrid(const Setup& s, const std::vector<SweepCell>& cells)
{
    GridRun run;
    run.results.resize(cells.size());
    run.traces.resize(cells.size());
    const BenchContext& ctx = *s.ctx;
    WallTimer timer;
    try {
        parallelFor(cells.size(), kJobs, [&](size_t i) {
            run.results[i] = runTracedCell(ctx, cells[i], run.traces[i]);
        });
    } catch (const FatalError& e) {
        run.error = e.what();
    }
    run.wallSec = timer.seconds();
    return run;
}

std::vector<JsonValue>
digests(const std::vector<SweepCell>& cells, const GridRun& run)
{
    std::vector<JsonValue> out;
    if (!run.error.empty())
        return out;
    for (size_t i = 0; i < cells.size(); ++i)
        out.push_back(digestCell(cells[i], run.results[i]));
    return out;
}

/**
 * The cells of a grid that failed any check, with the first few
 * reasons kept. A grid executed at two seeds, or several times, is
 * still one set of cells: cell i fails if any execution of it does.
 */
class Checker
{
  public:
    explicit Checker(size_t num_cells) : cellFailed(num_cells, false) {}

    /**
     * Check one execution of the grid: a crash fails every cell; a
     * cell that loses requests, or whose digest differs from `want`
     * (when given), fails.
     */
    void
    grid(const std::vector<SweepCell>& cells, const GridRun& run,
         const std::vector<JsonValue>* want, const std::string& what)
    {
        panicIf(cells.size() != cellFailed.size(),
                "perfbench: checked grid has the wrong cell count");
        if (!run.error.empty()) {
            cellFailed.assign(cellFailed.size(), true);
            note(what + ": grid aborted: " + run.error);
            return;
        }
        std::vector<JsonValue> got = digests(cells, run);
        for (size_t i = 0; i < cells.size(); ++i) {
            const Metrics& m = run.results[i].metrics;
            auto offered = static_cast<size_t>(cells[i].workload.numRequests);
            std::string diff;
            if (m.completed + m.shed != offered)
                diff = "completed + shed = " +
                       std::to_string(m.completed + m.shed) + ", offered " +
                       std::to_string(offered);
            else if (want != nullptr)
                diff = firstDifference((*want)[i], got[i]);
            if (!diff.empty()) {
                cellFailed[i] = true;
                note(what + ": cell " + std::to_string(i) + " " +
                     cellLabel(cells[i]) + ": " + diff);
            }
        }
    }

    /** A check that is not about one cell. */
    void
    require(bool ok, const std::string& message)
    {
        if (!ok) {
            checksOk = false;
            note(message);
        }
    }

    size_t cells() const { return cellFailed.size(); }

    size_t
    failed() const
    {
        return static_cast<size_t>(
            std::count(cellFailed.begin(), cellFailed.end(), true));
    }

    bool correct() const { return failed() == 0 && checksOk; }

    void
    print() const
    {
        for (const std::string& n : notes)
            std::printf("  FAIL %s\n", n.c_str());
    }

  private:
    void
    note(const std::string& message)
    {
        if (notes.size() < 10)
            notes.push_back(message);
    }

    std::vector<bool> cellFailed;
    bool checksOk = true;
    std::vector<std::string> notes;
};

std::string
goldenPath(const Options& opt, const std::string& name)
{
    return opt.goldenDir + "/" + name + ".json";
}

/** The committed digests of the pinned grid. */
std::vector<JsonValue>
loadGolden(const Options& opt, const Setup& s)
{
    std::string path = goldenPath(opt, s.name);
    JsonValue doc = parseJsonFile(path);
    auto number = [&](const char* key) {
        const JsonValue* v = doc.find(key);
        return v != nullptr ? v->number : -1.0;
    };
    const JsonValue* workload = doc.find("workload");
    const JsonValue* cells = doc.find("cells");
    fatalIf(workload == nullptr || workload->str != s.name ||
                number("seed") != static_cast<double>(s.pinnedSeed) ||
                number("requests") != s.spec.requests ||
                cells == nullptr ||
                cells->items.size() != s.pinnedCells.size(),
            "perfbench: golden file " + path +
                " was recorded for another grid (regenerate with "
                "--write-golden)");
    return cells->items;
}

/** Run grids until `budget` seconds pass, at least `min_runs` times. */
template <typename RunFn>
std::vector<GridRun>
repeatFor(double budget, int min_runs, RunFn&& run_once)
{
    std::vector<GridRun> runs;
    std::vector<double> walls;
    WallTimer elapsed;
    while (static_cast<int>(runs.size()) < min_runs ||
           elapsed.seconds() + median(walls) <= budget) {
        runs.push_back(run_once());
        walls.push_back(runs.back().wallSec);
    }
    return runs;
}

std::vector<double>
wallsOf(const std::vector<GridRun>& runs)
{
    std::vector<double> walls;
    for (const GridRun& r : runs)
        walls.push_back(r.wallSec);
    return walls;
}

/**
 * The untimed pinned grid (or the first timed run, when it is that
 * grid) checked against the golden, then every other timed run
 * against the first. Returns the pinned grid's results.
 */
GridRun
checkAgainstGolden(const Options& opt, const Setup& s,
                   const std::vector<GridRun>& timed, GridRun pinned,
                   Checker& check)
{
    std::vector<JsonValue> golden = loadGolden(opt, s);
    if (s.atPinnedSeed())
        pinned = timed[0];
    check.grid(s.pinnedCells, pinned, &golden, "golden");
    std::vector<JsonValue> first = digests(s.cells, timed[0]);
    for (size_t r = s.atPinnedSeed() ? 1 : 0; r < timed.size(); ++r)
        check.grid(s.cells, timed[r],
                   r == 0 || first.empty() ? nullptr : &first,
                   "repeat " + std::to_string(r));
    return pinned;
}

/** Simulated totals pooled over one grid's cells. */
struct SimTotals
{
    double events = 0.0;
    double offered = 0.0;
    double completed = 0.0;
    double shed = 0.0;
    double attained = 0.0;
    double makespan = 0.0;
    double misses = 0.0;
    double anttWeighted = 0.0;
    double decisions = 0.0;
    double preemptions = 0.0;
    double batchSteps = 0.0;
    double batchMemberSteps = 0.0;
    double retries = 0.0;
    double hedges = 0.0;
    double timeouts = 0.0;

    explicit SimTotals(const GridRun& run)
    {
        for (const SweepCellResult& r : run.results) {
            const Metrics& m = r.metrics;
            double done = static_cast<double>(m.completed);
            double dropped = static_cast<double>(m.shed);
            events += static_cast<double>(r.eventsProcessed);
            offered += done + dropped;
            completed += done;
            shed += dropped;
            attained += m.goodput * m.makespan;
            makespan += m.makespan;
            misses += m.sloMissRate * (done + dropped);
            anttWeighted += m.antt * done;
            decisions += static_cast<double>(r.decisions);
            preemptions += static_cast<double>(r.preemptions);
            batchSteps += m.batching.steps;
            batchMemberSteps += m.batching.meanOccupancy * m.batching.steps;
            retries += m.resilience.retries;
            hedges += m.resilience.hedges;
            timeouts += m.resilience.timeouts;
        }
    }
};

/** The metrics block of the result line, in declaration order. */
class MetricSet
{
  public:
    void
    add(const std::string& name, double value, const std::string& unit)
    {
        items.push_back({name, value, unit});
    }

    bool
    allFinite() const
    {
        for (const Item& item : items) {
            if (!std::isfinite(item.value))
                return false;
        }
        return true;
    }

    void
    printTable() const
    {
        for (const Item& item : items)
            std::printf("  %-28s %18.6f %s\n", item.name.c_str(),
                        item.value, item.unit.c_str());
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (size_t i = 0; i < items.size(); ++i) {
            const Item& item = items[i];
            std::snprintf(buf, sizeof(buf), "%.17g",
                          std::isfinite(item.value) ? item.value : 0.0);
            out += (i ? ", \"" : "\"") + item.name + "\": {\"value\": " +
                   buf + ", \"unit\": \"" + item.unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items;
};

void
printHeader(const Setup& s, const char* mode)
{
    std::printf("perfbench %s%s: %zu cells x %d requests, seed %llu "
                "(pinned %llu), %d workers\n",
                s.name.c_str(), mode, s.cells.size(), s.spec.requests,
                static_cast<unsigned long long>(s.spec.seed),
                static_cast<unsigned long long>(s.pinnedSeed), kJobs);
}

void
printSeconds(const char* what, const std::vector<double>& seconds)
{
    std::printf("  %s [s]:", what);
    for (double sec : seconds)
        std::printf(" %.4g", sec);
    std::printf("\n");
}

void
printResult(Checker& check, const MetricSet& metrics)
{
    check.require(metrics.allFinite(), "a metric is not finite");
    metrics.printTable();
    check.print();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                check.correct() ? "true" : "false", check.cells(),
                check.failed(), metrics.json().c_str());
}

/** End-to-end metrics: tracing off. */
int
runEndToEnd(const Options& opt)
{
    Setup s = setUp(opt.workload, opt, kSetups);
    printHeader(s, "");
    GridRun pinned;
    if (!s.atPinnedSeed())
        pinned = runGrid(s, s.pinnedCells, kJobs);
    std::vector<GridRun> runs = repeatFor(
        opt.seconds, 2, [&]() { return runGrid(s, s.cells, kJobs); });
    Checker check(s.cells.size());
    pinned = checkAgainstGolden(opt, s, runs, std::move(pinned), check);

    SimTotals work(runs[0]);
    SimTotals sim(pinned);
    double run_s = median(wallsOf(runs));
    double error_rate = ratio(static_cast<double>(check.failed()),
                              static_cast<double>(check.cells()));
    MetricSet m;
    m.add("setup_s", median(s.setupSec), "s");
    m.add("run_s", run_s, "s");
    m.add("events_per_s", ratio(work.events, run_s), "1/s");
    m.add("requests_per_s", ratio(work.offered, run_s), "1/s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("cell_pass_rate", 1.0 - error_rate, "ratio");
    m.add("sim_goodput_rps", ratio(sim.attained, sim.makespan), "req/s");
    m.add("sim_slo_miss_rate", ratio(sim.misses, sim.offered), "ratio");
    m.add("sim_antt", ratio(sim.anttWeighted, sim.completed), "ratio");
    printSeconds("set-ups", s.setupSec);
    printSeconds("timed grid runs", wallsOf(runs));
    std::printf("  cell_error_rate %.6g (%zu of %zu cells)\n", error_rate,
                check.failed(), check.cells());
    printResult(check, m);
    return 0;
}

/**
 * Attribution. Every traced nanosecond lands in exactly one of a
 * layer's self time, a clock read or the core's self time, so these
 * add up to the traced wall time by construction. What can go wrong
 * is a negative share: spans that cover more than the wall time, or a
 * layer whose self time is negative beyond one clock read per call
 * (a clock cost calibrated too high).
 */
CellTrace
checkAttribution(const GridRun& run, Checker& check)
{
    CellTrace total;
    for (const CellTrace& t : run.traces)
        total.merge(t);
    check.require(total.simSelfNs() >= 0.0,
                  "spans cover more than the traced wall time");
    check.require(total.wallNs <= 1e9 * run.wallSec * kJobs * 1.001 + 1e6,
                  "traced cell time exceeds workers x wall time");
    for (const CallStat* stat :
         {&total.workloadNext, &total.workloadRetire,
          &total.workloadGenerate, &total.serveSelect, &total.serveHook,
          &total.serveRebalance, &total.admission, &total.schedPick,
          &total.schedHook, &total.batchEstimate, &total.probe,
          &total.chaos}) {
        check.require(stat->ns >= -clockReadNs() *
                                      static_cast<double>(stat->calls),
                      "a layer's self time is negative beyond the clock "
                      "cost");
    }
    return total;
}

/** Per-layer metrics: an untraced and a traced half of the budget. */
int
runTraced(const Options& opt)
{
    Setup s = setUp(opt.workload, opt, kSetups);
    printHeader(s, " (traced)");
    GridRun pinned;
    if (!s.atPinnedSeed())
        pinned = runGrid(s, s.pinnedCells, kJobs);
    double half = opt.seconds / 2.0;
    std::vector<GridRun> plain = repeatFor(
        half, 1, [&]() { return runGrid(s, s.cells, kJobs); });
    std::vector<GridRun> traced =
        repeatFor(half, 1, [&]() { return runTracedGrid(s, s.cells); });

    Checker check(s.cells.size());
    checkAgainstGolden(opt, s, plain, std::move(pinned), check);
    std::vector<JsonValue> first = digests(s.cells, plain[0]);
    std::vector<CellTrace> totals;
    for (size_t r = 0; r < traced.size(); ++r) {
        check.grid(s.cells, traced[r], first.empty() ? nullptr : &first,
                   "traced run " + std::to_string(r));
        totals.push_back(checkAttribution(traced[r], check));
    }

    // Report the traced run of median wall time, so its layer times
    // stay consistent with each other.
    size_t mid = medianIndex(wallsOf(traced));
    const CellTrace& t = totals[mid];
    std::map<std::string, CallStat> pick_by_policy;
    for (const CellTrace& cell : traced[mid].traces)
        pick_by_policy[cell.policy].merge(cell.schedPick);
    SimTotals sim(plain[0]);
    const GridRun& p = plain[medianIndex(wallsOf(plain))];
    double cell_sec = 0.0;
    for (double sec : p.cellSeconds)
        cell_sec += sec;

    MetricSet m;
    m.add("trace.profile_s", median(s.profileSec), "s");
    m.add("workload.next_calls", static_cast<double>(t.workloadNext.calls),
          "count");
    m.add("workload.next_ns", t.workloadNext.ns, "ns");
    m.add("workload.retire_ns", t.workloadRetire.ns, "ns");
    m.add("workload.generate_s", t.workloadGenerate.ns * 1e-9, "s");
    m.add("serve.select_calls", static_cast<double>(t.serveSelect.calls),
          "count");
    m.add("serve.select_ns", t.serveSelect.ns, "ns");
    m.add("serve.hook_ns", t.serveHook.ns, "ns");
    m.add("serve.rebalance_calls",
          static_cast<double>(t.serveRebalance.calls), "count");
    m.add("core.admission_calls", static_cast<double>(t.admission.calls),
          "count");
    m.add("core.admission_ns", t.admission.ns, "ns");
    m.add("sched.pick_calls", static_cast<double>(t.schedPick.calls),
          "count");
    m.add("sched.pick_ns", t.schedPick.ns, "ns");
    m.add("sched.pick_p50_ns", t.pickHistogram.quantile(0.50), "ns");
    m.add("sched.pick_p99_ns", t.pickHistogram.quantile(0.99), "ns");
    m.add("sched.ready_mean",
          ratio(static_cast<double>(t.readySum),
                static_cast<double>(t.schedPick.calls)),
          "count");
    m.add("sched.ready_max", static_cast<double>(t.readyMax), "count");
    m.add("sched.hook_ns", t.schedHook.ns, "ns");
    for (const char* policy : kPolicies) {
        auto it = pick_by_policy.find(policy);
        m.add(std::string("sched.pick_ns.") + policy,
              it == pick_by_policy.end() ? 0.0 : it->second.ns, "ns");
    }
    m.add("batch.est_calls", static_cast<double>(t.batchEstimate.calls),
          "count");
    m.add("batch.est_ns", t.batchEstimate.ns, "ns");
    m.add("batch.mean_occupancy",
          ratio(sim.batchMemberSteps, sim.batchSteps), "count");
    m.add("batch.steps", sim.batchSteps, "count");
    m.add("obs.probe_calls", static_cast<double>(t.probe.calls), "count");
    m.add("obs.probe_ns", t.probe.ns, "ns");
    m.add("chaos.next_calls", static_cast<double>(t.chaos.calls), "count");
    m.add("chaos.next_ns", t.chaos.ns, "ns");
    m.add("chaos.retries", sim.retries, "count");
    m.add("chaos.hedges", sim.hedges, "count");
    m.add("chaos.timeouts", sim.timeouts, "count");
    m.add("exp.cells", static_cast<double>(s.cells.size()), "count");
    m.add("exp.parallel_efficiency", ratio(cell_sec, kJobs * p.wallSec),
          "ratio");
    m.add("sim.self_ns", t.simSelfNs(), "ns");
    m.add("sim.self_ns_per_event", ratio(t.simSelfNs(), sim.events), "ns");
    m.add("sim.events", sim.events, "count");
    m.add("sim.events_per_request", ratio(sim.events, sim.offered),
          "count");
    m.add("sim.decisions", sim.decisions, "count");
    m.add("sim.preemptions", sim.preemptions, "count");
    m.add("sim.shed_share", ratio(sim.shed, sim.offered), "ratio");
    m.add("bench.trace_overhead_ratio",
          ratio(median(wallsOf(traced)), median(wallsOf(plain))), "ratio");
    m.add("bench.clock_read_ns", clockReadNs(), "ns");
    printSeconds("untraced grid runs", wallsOf(plain));
    printSeconds("traced grid runs", wallsOf(traced));
    std::printf("  %.0f spans; their clock reads took %.3f s of %.3f s "
                "traced cell time\n",
                static_cast<double>(t.spans), t.clockOverheadNs() * 1e-9,
                t.wallNs * 1e-9);
    printResult(check, m);
    return 0;
}

/**
 * Outside any measured run: every workload's pinned grid must match
 * its golden and its traced twin, and tab05's must not depend on the
 * worker count.
 */
int
runSelfTest(Options opt)
{
    opt.haveSeed = false;
    bool ok = true;
    auto report = [&](const std::string& what, const Checker& check) {
        std::printf("%-36s %s (%zu cells)\n", what.c_str(),
                    check.correct() ? "ok" : "FAIL", check.cells());
        check.print();
        ok = ok && check.correct();
    };
    for (const char* name : kWorkloads) {
        if (!opt.workload.empty() && opt.workload != name)
            continue;
        Setup s = setUp(name, opt, 1);
        GridRun plain = runGrid(s, s.cells, kJobs);
        std::vector<JsonValue> first = digests(s.cells, plain);
        const std::vector<JsonValue>* want =
            first.empty() ? nullptr : &first;

        Checker golden(s.cells.size());
        checkAgainstGolden(opt, s, {plain}, GridRun{}, golden);
        report(s.name + ": golden", golden);

        Checker fidelity(s.cells.size());
        fidelity.grid(s.cells, runTracedGrid(s, s.cells), want, "traced");
        report(s.name + ": traced == untraced", fidelity);

        if (s.name == "tab05") {
            Checker jobs(s.cells.size());
            jobs.grid(s.cells, runGrid(s, s.cells, 1), want, "--jobs 1");
            report(s.name + ": --jobs " + std::to_string(kJobs) +
                       " == --jobs 1",
                   jobs);
        }
    }
    std::printf("self-test %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

int
writeGoldens(Options opt)
{
    opt.haveSeed = false;
    for (const char* name : kWorkloads) {
        if (!opt.workload.empty() && opt.workload != name)
            continue;
        Setup s = setUp(name, opt, 1);
        GridRun run = runGrid(s, s.pinnedCells, kJobs);
        fatalIf(!run.error.empty(),
                "perfbench: " + s.name + ": " + run.error);
        JsonWriter w;
        w.beginObject();
        w.field("workload", s.name);
        w.field("seed", s.pinnedSeed);
        w.field("requests", s.spec.requests);
        w.beginArray("cells");
        for (size_t i = 0; i < s.pinnedCells.size(); ++i) {
            w.beginObject();
            writeDigest(w, s.pinnedCells[i], run.results[i]);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::string path = goldenPath(opt, s.name);
        fatalIf(!w.writeFile(path), "perfbench: cannot write " + path);
        std::printf("wrote %s (%zu cells)\n", path.c_str(),
                    s.pinnedCells.size());
    }
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Options opt = parseArgs(argc, argv);
    dysta::setFatalThrows(true);
    try {
        calibrateClock();
        if (opt.selfTest)
            return runSelfTest(opt);
        if (opt.writeGolden)
            return writeGoldens(opt);
        if (opt.workload.empty())
            usage("--workload is required");
        return opt.trace ? runTraced(opt) : runEndToEnd(opt);
    } catch (const dysta::FatalError& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
