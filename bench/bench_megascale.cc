/**
 * @file
 * Megascale streaming endurance bench: pushes the megascale scenario
 * (>=10M requests, diurnal + MMPP arrivals, 4-node fleet) through
 * the streaming engine, measuring sustained
 * events/sec and *asserting* the core memory claim — peak RSS is
 * independent of the request count.
 *
 * The RSS check exploits VmHWM's monotonicity: the scenario first
 * runs at a small warm-up request count (every allocation class —
 * trace pools, calendars, arenas, per-node queues — is touched), the
 * high-water mark is sampled, then the full-size runs execute and
 * the mark is sampled again. In streaming mode the in-flight set is
 * bounded by admission control, so growing the request count 50x
 * must not grow the high-water mark beyond `--rss-budget-mb`; the
 * process exits 1 when it does. A materialized run of the same size
 * would allocate the full request vector up front, which is exactly
 * what the budget would catch.
 *
 * Results go to BENCH_megascale.json: per arrival-process run —
 * requests, completed/shed, calendar events, wall seconds and
 * events/sec — plus the RSS accounting and verdict.
 *
 * Usage: bench_megascale [--requests N] [--rss-budget-mb N]
 *        [--out BENCH_megascale.json]
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/scenario.hh"
#include "exp/sweep.hh"
#include "util/args.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace dysta;

namespace {

/**
 * Peak resident set (VmHWM) of this process in kB, from
 * /proc/self/status; 0 when unavailable (non-Linux), which disables
 * the budget assertion rather than failing spuriously.
 */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            long kb = 0;
            fields >> kb;
            return kb;
        }
    }
    return 0;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct RunRecord
{
    std::string arrival;
    int requests = 0;
    SweepCellResult result;
    double wallSec = 0.0;

    double
    eventsPerSec() const
    {
        return wallSec > 0.0 ? static_cast<double>(
                                   result.eventsProcessed) /
                                   wallSec
                             : 0.0;
    }
};

/** Run every grid cell of `spec`, timed. */
std::vector<RunRecord>
runAll(const BenchContext& ctx, const ScenarioSpec& spec)
{
    std::vector<RunRecord> records;
    for (const SweepCell& cell : scenarioCells(spec)) {
        RunRecord rec;
        rec.arrival = toString(cell.workload.arrival.kind);
        rec.requests = cell.workload.numRequests;
        auto t0 = std::chrono::steady_clock::now();
        rec.result = runSweepCell(ctx, cell);
        rec.wallSec = secondsSince(t0);
        records.push_back(rec);
    }
    return records;
}

std::string
mbStr(long kb)
{
    return AsciiTable::num(static_cast<double>(kb) / 1024.0, 1) +
           " MB";
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("bench_megascale",
                   "Streaming endurance run of the megascale "
                   "scenario, with a flat peak-RSS assertion.");
    args.addInt("--requests", 10000000,
                "full-size request count per grid cell (CI uses "
                "1000000)");
    args.addInt("--warmup-requests", 200000,
                "warm-up request count that sets the RSS baseline");
    args.addInt("--rss-budget-mb", 256,
                "max allowed VmHWM growth between the warm-up and "
                "full-size runs; exceeded => exit 1 (0 disables)");
    args.addInt("--samples", 0,
                "override Phase-1 samples per model (0 = keep)");
    args.addString("--out", "BENCH_megascale.json",
                   "report path ('' = skip the JSON report)");
    args.parse(argc, argv);

    int requests = args.getInt("--requests");
    int warmup = args.getInt("--warmup-requests");
    long budget_mb = args.getInt("--rss-budget-mb");
    fatalIf(requests <= 0 || warmup <= 0 || warmup > requests,
            "bench_megascale: need 0 < --warmup-requests <= "
            "--requests");

    ScenarioSpec spec = builtinScenario("megascale");
    spec.requests = requests;
    if (args.getInt("--samples") > 0)
        spec.samples = args.getInt("--samples");
    validateScenario(spec);

    std::printf("Profiling models for scenario '%s'...\n",
                spec.name.c_str());
    auto ctx = makeBenchContext(scenarioSetup(spec));

    // Warm-up at a small request count touches every allocation
    // class; VmHWM afterwards is the baseline the full-size runs must
    // stay near.
    ScenarioSpec warm = spec;
    warm.requests = warmup;
    std::printf("Warm-up: %d requests per cell...\n", warmup);
    runAll(*ctx, warm);
    long warm_kb = peakRssKb();

    std::printf("Full-size: %d requests per cell...\n", requests);
    std::vector<RunRecord> records = runAll(*ctx, spec);
    long peak_kb = peakRssKb();
    long growth_kb = peak_kb - warm_kb;

    AsciiTable table("Megascale streaming throughput (" +
                     std::to_string(requests) +
                     " requests per cell)");
    table.setHeader({"arrival", "completed", "shed",
                     "events", "wall", "events/sec"});
    for (const RunRecord& rec : records)
        table.addRow(
            {rec.arrival,
             std::to_string(rec.result.metrics.completed),
             std::to_string(rec.result.metrics.shed),
             std::to_string(rec.result.eventsProcessed),
             AsciiTable::num(rec.wallSec, 1) + "s",
             AsciiTable::num(rec.eventsPerSec() / 1e6, 2) +
                 " M/s"});
    table.print();

    bool rss_checked = warm_kb > 0 && budget_mb > 0;
    bool rss_ok =
        !rss_checked || growth_kb <= budget_mb * 1024;
    std::printf(
        "Peak RSS: %s after %d-request warm-up, %s after %d — "
        "growth %s for a %.0fx request increase (budget %ld MB): "
        "%s\n",
        mbStr(warm_kb).c_str(), warmup, mbStr(peak_kb).c_str(),
        requests, mbStr(growth_kb).c_str(),
        static_cast<double>(requests) / warmup, budget_mb,
        !rss_checked ? "unchecked"
        : rss_ok     ? "flat, within budget"
                     : "FAIL — peak RSS grew with request count");

    const std::string out = args.getString("--out");
    if (!out.empty()) {
        JsonWriter json;
        json.beginObject();
        json.field("bench", "bench_megascale");
        json.field("requests", requests);
        json.field("warmup_requests", warmup);
        json.beginArray("results");
        for (const RunRecord& rec : records) {
            json.beginObject();
            json.field("arrival", rec.arrival);
            json.field("requests", rec.requests);
            json.field("completed",
                       static_cast<uint64_t>(
                           rec.result.metrics.completed));
            json.field("shed", static_cast<uint64_t>(
                                   rec.result.metrics.shed));
            json.field("events",
                       static_cast<uint64_t>(
                           rec.result.eventsProcessed));
            json.field("wall_sec", rec.wallSec);
            json.field("events_per_sec", rec.eventsPerSec());
            json.field("antt", rec.result.metrics.antt);
            json.field("slo_miss_rate",
                       rec.result.metrics.sloMissRate);
            json.endObject();
        }
        json.endArray();
        json.beginObject("rss");
        json.field("warmup_peak_kb",
                   static_cast<int64_t>(warm_kb));
        json.field("final_peak_kb",
                   static_cast<int64_t>(peak_kb));
        json.field("growth_kb",
                   static_cast<int64_t>(growth_kb));
        json.field("budget_mb",
                   static_cast<int64_t>(budget_mb));
        json.field("checked", rss_checked);
        json.field("flat", rss_ok);
        json.endObject();
        json.endObject();
        fatalIf(!json.writeFile(out),
                "bench_megascale: cannot write " + out);
        std::printf("Wrote %s\n", out.c_str());
    }
    return rss_ok ? 0 : 1;
}
