#include "api/report.hh"

#include <algorithm>
#include <cstdio>

#include "obs/telemetry.hh"
#include "util/csv.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/table.hh"

namespace dysta {

Reporter::Reporter(std::string tool_name) : tool(std::move(tool_name)) {}

void
Reporter::meta(const std::string& key, const std::string& value)
{
    Value v;
    v.kind = Value::Kind::Str;
    v.str = value;
    metaFields.emplace_back(key, std::move(v));
}

void
Reporter::meta(const std::string& key, int value)
{
    Value v;
    v.kind = Value::Kind::Int;
    v.integer = value;
    metaFields.emplace_back(key, std::move(v));
}

void
Reporter::meta(const std::string& key, double value)
{
    Value v;
    v.kind = Value::Kind::Num;
    v.num = value;
    metaFields.emplace_back(key, std::move(v));
}

void
Reporter::scalar(const std::string& key, double value)
{
    Value v;
    v.kind = Value::Kind::Num;
    v.num = value;
    scalars.emplace_back(key, std::move(v));
}

void
Reporter::scalar(const std::string& key, int64_t value)
{
    Value v;
    v.kind = Value::Kind::Int;
    v.integer = value;
    scalars.emplace_back(key, std::move(v));
}

void
Reporter::scalar(const std::string& key, bool value)
{
    Value v;
    v.kind = Value::Kind::Bool;
    v.boolean = value;
    scalars.emplace_back(key, std::move(v));
}

void
Reporter::scalar(const std::string& key, const std::string& value)
{
    Value v;
    v.kind = Value::Kind::Str;
    v.str = value;
    scalars.emplace_back(key, std::move(v));
}

void
Reporter::add(const ScenarioResult& result)
{
    runs.push_back(result);
}

namespace {

/** Write `block`'s fields as JSON members, in table order. */
template <typename Stats, size_t N>
void
writeFields(JsonWriter& json, const StatsField<Stats> (&fields)[N],
            const Stats& block)
{
    for (const StatsField<Stats>& f : fields) {
        if (f.count)
            json.field(f.name, static_cast<uint64_t>(block.*f.count));
        else
            json.field(f.name, block.*f.real);
    }
}

/** Append the CSV column of each field that has one. */
template <typename Stats, size_t N>
void
appendColumns(std::vector<std::string>& header,
              const StatsField<Stats> (&fields)[N],
              const std::string& prefix = "")
{
    for (const StatsField<Stats>& f : fields) {
        if (*f.csv != '\0')
            header.push_back(prefix + f.csv);
    }
}

/** Append `block`'s CSV cells; empty ones when it is null. */
template <typename Stats, size_t N>
void
appendCells(std::vector<std::string>& cells,
            const StatsField<Stats> (&fields)[N], const Stats* block)
{
    for (const StatsField<Stats>& f : fields) {
        if (*f.csv == '\0')
            continue;
        if (block == nullptr)
            cells.emplace_back();
        else if (f.count)
            cells.push_back(std::to_string(block->*f.count));
        else
            cells.push_back(jsonNumber(block->*f.real));
    }
}

void
writeRow(JsonWriter& json, const ScenarioRow& row)
{
    json.beginObject();
    json.field("workload", row.workload);
    json.field("arrival", row.arrival);
    json.field("slo", row.slo);
    json.field("fleet", row.fleet);
    json.field("dispatcher", row.dispatcher);
    json.field("admission_margin", row.admissionMargin);
    json.field("steal_ratio", row.stealRatio);
    // Emitted only when the grid has a chaos axis, so reports from
    // chaos-free scenarios stay byte-identical to older runs.
    if (!row.chaos.empty())
        json.field("chaos", row.chaos);
    // Likewise emitted only when the grid has a batcher axis.
    if (!row.batcher.empty())
        json.field("batcher", row.batcher);
    json.field("scheduler", row.scheduler);
    const Metrics& m = row.metrics;
    writeFields(json, kMetricsFields, m);
    json.field("decisions", row.decisions);
    json.field("preemptions", row.preemptions);
    if (!m.estimators.empty()) {
        json.beginArray("estimators");
        for (const EstimatorAccuracy& est : m.estimators) {
            json.beginObject();
            json.field("estimator", est.estimator);
            writeFields(json, kEstimatorFields, est);
            json.endObject();
        }
        json.endArray();
    }
    // Resilience block only when a chaos-engine mechanism ran
    // (fault injection, retries, hedging, brown-out or tiers).
    if (m.resilience.active) {
        json.beginObject("resilience");
        writeFields(json, kResilienceFields, m.resilience);
        if (!m.resilience.tiers.empty()) {
            json.beginArray("tiers");
            for (const TierStats& tier : m.resilience.tiers) {
                json.beginObject();
                writeFields(json, kTierFields, tier);
                json.endObject();
            }
            json.endArray();
        }
        json.endObject();
    }
    // Batching block only when batch formation ran.
    if (m.batching.active) {
        json.beginObject("batching");
        writeFields(json, kBatchFields, m.batching);
        json.endObject();
    }
    json.endObject();
}

} // namespace

std::string
Reporter::json() const
{
    JsonWriter json;
    json.beginObject();
    json.field("tool", tool);

    auto write = [&json](const auto& fields) {
        for (const auto& [key, value] : fields) {
            switch (value.kind) {
              case Value::Kind::Str: json.field(key, value.str); break;
              case Value::Kind::Num: json.field(key, value.num); break;
              case Value::Kind::Int: json.field(key, value.integer); break;
              case Value::Kind::Bool: json.field(key, value.boolean); break;
            }
        }
    };
    json.beginObject("meta");
    write(metaFields);
    json.endObject();
    write(scalars);

    json.beginArray("scenarios");
    for (const ScenarioResult& run : runs) {
        json.beginObject();
        json.field("name", run.spec.name);
        json.field("spec", serializeScenario(run.spec));
        json.beginArray("rows");
        for (const ScenarioRow& row : run.rows)
            writeRow(json, row);
        json.endArray();
        json.endObject();
    }
    json.endArray();

    json.endObject();
    return json.str();
}

void
Reporter::writeJson(const std::string& path) const
{
    std::string document = json();
    std::FILE* out = std::fopen(path.c_str(), "w");
    fatalIf(out == nullptr, "Reporter: cannot write '" + path + "'");
    bool ok =
        std::fwrite(document.data(), 1, document.size(), out) ==
            document.size() &&
        std::fputc('\n', out) != EOF;
    ok = std::fclose(out) == 0 && ok;
    fatalIf(!ok, "Reporter: short write to '" + path + "'");
    // detlint-allow(stdout-print): Reporter is the CLI presentation
    // layer; the wrote-file note is user-facing progress output
    std::printf("Wrote %s\n", path.c_str());
}

void
Reporter::writeCsv(const std::string& path) const
{
    // Union of probe names across all rows, first-appearance order,
    // so heterogeneous scenarios share one header. Resilience columns
    // appear only when some row ran a chaos mechanism, keeping
    // chaos-free CSVs byte-identical; batching columns likewise.
    std::vector<std::string> probes;
    bool any_resilience = false;
    bool any_batch = false;
    for (const ScenarioResult& run : runs) {
        for (const ScenarioRow& row : run.rows) {
            for (const EstimatorAccuracy& est :
                 row.metrics.estimators) {
                if (std::find(probes.begin(), probes.end(),
                              est.estimator) == probes.end())
                    probes.push_back(est.estimator);
            }
            any_resilience =
                any_resilience || row.metrics.resilience.active;
            any_batch = any_batch || row.metrics.batching.active;
        }
    }

    CsvWriter csv(path);
    std::vector<std::string> header = {
        "scenario", "workload",   "arrival",          "slo",
        "fleet",    "dispatcher", "admission_margin", "steal_ratio",
    };
    // The chaos and batcher axes sit before scheduler, the slot the
    // JSON rows use.
    if (any_resilience)
        header.push_back("chaos");
    if (any_batch)
        header.push_back("batcher");
    header.push_back("scheduler");
    appendColumns(header, kMetricsFields);
    header.insert(header.end(), {"decisions", "preemptions"});
    if (any_resilience)
        appendColumns(header, kResilienceFields);
    if (any_batch)
        appendColumns(header, kBatchFields);
    for (const std::string& name : probes)
        appendColumns(header, kEstimatorFields, "est_" + name + "_");
    csv.writeRow(header);

    for (const ScenarioResult& run : runs) {
        for (const ScenarioRow& row : run.rows) {
            const Metrics& m = row.metrics;
            std::vector<std::string> cells = {
                run.spec.name,
                row.workload,
                row.arrival,
                jsonNumber(row.slo),
                row.fleet,
                row.dispatcher,
                jsonNumber(row.admissionMargin),
                jsonNumber(row.stealRatio),
            };
            if (any_resilience)
                cells.push_back(row.chaos);
            if (any_batch)
                cells.push_back(row.batcher);
            cells.push_back(row.scheduler);
            appendCells(cells, kMetricsFields, &m);
            cells.push_back(jsonNumber(row.decisions));
            cells.push_back(jsonNumber(row.preemptions));
            // Rows without a block leave its columns empty.
            if (any_resilience)
                appendCells(cells, kResilienceFields,
                            m.resilience.active ? &m.resilience
                                                : nullptr);
            if (any_batch)
                appendCells(cells, kBatchFields,
                            m.batching.active ? &m.batching : nullptr);
            for (const std::string& name : probes) {
                const EstimatorAccuracy* found = nullptr;
                for (const EstimatorAccuracy& est : m.estimators)
                    if (est.estimator == name)
                        found = &est;
                appendCells(cells, kEstimatorFields, found);
            }
            csv.writeRow(cells);
        }
    }
    csv.close();
    // detlint-allow(stdout-print): Reporter presentation layer, as above
    std::printf("Wrote %s\n", path.c_str());
}

void
Reporter::printTables() const
{
    for (const ScenarioResult& run : runs)
        printScenarioTable(run);
}

namespace {

template <typename Fn>
bool
multiValued(const std::vector<ScenarioRow>& rows, Fn get)
{
    for (const ScenarioRow& row : rows) {
        if (get(row) != get(rows.front()))
            return true;
    }
    return false;
}

} // namespace

void
printScenarioTable(const ScenarioResult& result)
{
    if (result.rows.empty()) {
        // detlint-allow(stdout-print): result tables are the CLI's
        // primary output; this is the empty-table stand-in
        std::printf("scenario '%s': no result rows\n",
                    result.spec.name.c_str());
        return;
    }
    const ScenarioSpec& spec = result.spec;
    const std::vector<ScenarioRow>& rows = result.rows;

    // Elide single-valued axis columns; their value is in the title.
    bool show_workload = multiValued(
        rows, [](const ScenarioRow& r) { return r.workload; });
    bool show_arrival = multiValued(
        rows, [](const ScenarioRow& r) { return r.arrival; });
    bool show_slo =
        multiValued(rows, [](const ScenarioRow& r) { return r.slo; });
    bool show_fleet = spec.cluster() &&
        multiValued(rows,
                    [](const ScenarioRow& r) { return r.fleet; });
    bool show_dispatcher = spec.cluster();
    bool show_margin = multiValued(
        rows,
        [](const ScenarioRow& r) { return r.admissionMargin; });
    bool show_steal = multiValued(
        rows, [](const ScenarioRow& r) { return r.stealRatio; });
    bool show_chaos = multiValued(
        rows, [](const ScenarioRow& r) { return r.chaos; });
    bool show_batcher = multiValued(
        rows, [](const ScenarioRow& r) { return r.batcher; });
    bool any_shed = false;
    bool any_resilience = false;
    bool any_batch = false;
    for (const ScenarioRow& row : rows) {
        any_shed = any_shed || row.metrics.shed > 0;
        any_resilience =
            any_resilience || row.metrics.resilience.active;
        any_batch = any_batch || row.metrics.batching.active;
    }

    std::string title = "scenario '" + spec.name + "' (" +
                        std::to_string(spec.requests) + " requests x " +
                        std::to_string(spec.seeds) + " seed" +
                        (spec.seeds > 1 ? "s" : "");
    if (!show_workload)
        title += ", " + rows.front().workload;
    if (!show_arrival)
        title += ", " + rows.front().arrival;
    if (!show_slo)
        title += ", M_slo=" + shortestDouble(rows.front().slo) + "x";
    if (spec.cluster() && !show_fleet)
        title += ", fleet " + rows.front().fleet;
    if (!show_chaos && !rows.front().chaos.empty())
        title += ", chaos " + rows.front().chaos;
    if (!show_batcher && !rows.front().batcher.empty())
        title += ", batcher " + rows.front().batcher;
    title += ")";

    AsciiTable table(title);
    std::vector<std::string> header;
    if (show_workload)
        header.push_back("workload");
    if (show_arrival)
        header.push_back("arrival");
    if (show_slo)
        header.push_back("slo");
    if (show_fleet)
        header.push_back("fleet");
    if (show_dispatcher)
        header.push_back("dispatcher");
    if (show_margin)
        header.push_back("margin");
    if (show_steal)
        header.push_back("steal");
    if (show_chaos)
        header.push_back("chaos");
    if (show_batcher)
        header.push_back("batcher");
    header.push_back("scheduler");
    header.insert(header.end(),
                  {"ANTT", "violation [%]", "slo miss [%]",
                   "throughput", "goodput", "p99 lat [ms]"});
    if (any_shed)
        header.push_back("shed");
    if (any_resilience)
        header.insert(header.end(), {"avail [%]", "retries",
                                     "hedge win [%]"});
    if (any_batch)
        header.insert(header.end(), {"occupancy", "fill wait [ms]",
                                     "straggler [s]"});
    // Estimator accuracy probes, when the scenario ran any.
    const std::vector<EstimatorAccuracy>& probes =
        rows.front().metrics.estimators;
    for (const EstimatorAccuracy& est : probes)
        header.push_back("rmse " + est.estimator + " [ms]");
    table.setHeader(header);

    for (const ScenarioRow& row : rows) {
        std::vector<std::string> cells;
        if (show_workload)
            cells.push_back(row.workload);
        if (show_arrival)
            cells.push_back(row.arrival);
        if (show_slo)
            cells.push_back(shortestDouble(row.slo));
        if (show_fleet)
            cells.push_back(row.fleet);
        if (show_dispatcher)
            cells.push_back(row.dispatcher);
        if (show_margin)
            cells.push_back(shortestDouble(row.admissionMargin));
        if (show_steal)
            cells.push_back(row.stealRatio < 0.0
                                ? "default"
                                : shortestDouble(row.stealRatio));
        if (show_chaos)
            cells.push_back(row.chaos.empty() ? "none" : row.chaos);
        if (show_batcher)
            cells.push_back(row.batcher.empty() ? "none"
                                                : row.batcher);
        cells.push_back(row.scheduler);
        const Metrics& m = row.metrics;
        cells.push_back(AsciiTable::num(m.antt, 2));
        cells.push_back(AsciiTable::num(m.violationRate * 100.0, 1));
        cells.push_back(AsciiTable::num(m.sloMissRate * 100.0, 1));
        cells.push_back(AsciiTable::num(m.throughput, 2));
        cells.push_back(AsciiTable::num(m.goodput, 2));
        cells.push_back(AsciiTable::num(m.p99Latency * 1e3, 2));
        if (any_shed)
            cells.push_back(std::to_string(m.shed));
        if (any_resilience) {
            const ResilienceStats& res = m.resilience;
            if (res.active) {
                cells.push_back(
                    AsciiTable::num(res.availability * 100.0, 2));
                cells.push_back(AsciiTable::num(res.retries, 0));
                cells.push_back(
                    AsciiTable::num(res.hedgeWinRate * 100.0, 1));
            } else {
                cells.insert(cells.end(), {"-", "-", "-"});
            }
        }
        if (any_batch) {
            const BatchStats& bat = m.batching;
            if (bat.active) {
                cells.push_back(
                    AsciiTable::num(bat.meanOccupancy, 2));
                cells.push_back(
                    AsciiTable::num(bat.meanFillWaitSec * 1e3, 2));
                cells.push_back(
                    AsciiTable::num(bat.stragglerTaxSec, 3));
            } else {
                cells.insert(cells.end(), {"-", "-", "-"});
            }
        }
        for (const EstimatorAccuracy& probe : probes) {
            const EstimatorAccuracy* found = nullptr;
            for (const EstimatorAccuracy& est : m.estimators)
                if (est.estimator == probe.estimator)
                    found = &est;
            cells.push_back(
                found ? AsciiTable::num(found->rmse * 1e3, 2) : "-");
        }
        table.addRow(cells);
    }
    table.print();
}

void
printTelemetrySummary(const Telemetry& telemetry,
                      const std::vector<std::string>& node_names,
                      double makespan)
{
    if (makespan <= 0.0)
        makespan = telemetry.runEnd();

    // detlint-allow(stdout-print): telemetry summary is user-facing
    // CLI output requested via --gantt/--cell
    std::printf("telemetry: %zu arrivals, %zu dispatches, %zu shed, "
                "%zu completed; %zu migrations, %zu restarts, "
                "%zu preemptions\n",
                telemetry.arrivals(), telemetry.dispatches(),
                telemetry.sheds(), telemetry.completions(),
                telemetry.migrations(), telemetry.restarts(),
                telemetry.preemptionEvents());
    // detlint-allow(stdout-print): telemetry summary, see above
    std::printf("layers: %zu started = %zu completed + %zu abandoned "
                "(failures)\n",
                telemetry.execStarts(), telemetry.layerCompletions(),
                telemetry.abandonedLayers());
    if (telemetry.timeouts() + telemetry.retries() +
            telemetry.hedges() + telemetry.brownouts() >
        0) {
        // detlint-allow(stdout-print): telemetry summary, see above
        std::printf("chaos: %zu timeouts, %zu retries, %zu hedges "
                    "(%zu cancels), %zu brownout sheds\n",
                    telemetry.timeouts(), telemetry.retries(),
                    telemetry.hedges(), telemetry.hedgeCancels(),
                    telemetry.brownouts());
    }
    if (telemetry.batchesFormed() + telemetry.batchJoins() > 0) {
        // detlint-allow(stdout-print): telemetry summary, see above
        std::printf("batching: %zu batches formed, %zu continuous "
                    "joins\n",
                    telemetry.batchesFormed(),
                    telemetry.batchJoins());
    }

    const std::vector<NodeTelemetry>& nodes = telemetry.nodes();
    if (!nodes.empty()) {
        AsciiTable table("per-node telemetry (makespan " +
                         AsciiTable::num(makespan, 4) + "s)");
        table.setHeader({"node", "dispatched", "completed", "layers",
                         "preempt", "migr in/out", "fails",
                         "util [%]", "peak queue"});
        for (size_t i = 0; i < nodes.size(); ++i) {
            const NodeTelemetry& nt = nodes[i];
            std::string name =
                i < node_names.size() && !node_names[i].empty()
                    ? node_names[i]
                    : "node" + std::to_string(i);
            double util = makespan > 0.0
                              ? nt.busySec / makespan * 100.0
                              : 0.0;
            table.addRow(
                {name, std::to_string(nt.dispatched),
                 std::to_string(nt.completed),
                 std::to_string(nt.layersCompleted),
                 std::to_string(nt.preemptions),
                 std::to_string(nt.migratedIn) + "/" +
                     std::to_string(nt.migratedOut),
                 std::to_string(nt.fails), AsciiTable::num(util, 1),
                 std::to_string(nt.peakQueueDepth)});
        }
        table.print();
    }

    std::vector<EstimatorAccuracy> accuracy = telemetry.accuracy();
    if (!accuracy.empty()) {
        AsciiTable table("estimator accuracy (remaining-latency "
                         "residuals, reference-hardware ms)");
        table.setHeader({"estimator", "samples", "bias [ms]",
                         "rmse [ms]", "iso bias [ms]",
                         "iso rmse [ms]"});
        for (const EstimatorAccuracy& est : accuracy) {
            table.addRow({est.estimator,
                          AsciiTable::num(est.samples, 0),
                          AsciiTable::num(est.bias * 1e3, 3),
                          AsciiTable::num(est.rmse * 1e3, 3),
                          AsciiTable::num(est.isolatedBias * 1e3, 3),
                          AsciiTable::num(est.isolatedRmse * 1e3, 3)});
        }
        table.print();
    }
}

} // namespace dysta
