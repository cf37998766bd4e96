#include "exp/gantt.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "util/logging.hh"

namespace dysta {

namespace {

/** Request-identifying lane character: id mod 36 -> '0'-'9a-z'. */
char
requestChar(int id)
{
    int slot = id % 36;
    if (slot < 0)
        slot += 36;
    return slot < 10 ? static_cast<char>('0' + slot)
                     : static_cast<char>('a' + slot - 10);
}

/** Column range [c0, c1] covered by [lo, hi) within the window. */
bool
columnSpan(double lo, double hi, double t0, double col_width,
           size_t columns, size_t& c0, size_t& c1)
{
    if (hi <= lo)
        return false;
    c0 = static_cast<size_t>((lo - t0) / col_width);
    // A slice ending exactly on a column boundary does not own that
    // column.
    double hi_cols = (hi - t0) / col_width;
    c1 = static_cast<size_t>(std::max(std::ceil(hi_cols) - 1.0, 0.0));
    c0 = std::min(c0, columns - 1);
    c1 = std::min(std::max(c1, c0), columns - 1);
    return true;
}

/** fatal() unless `telemetry` kept its event log. */
void
requireEventLog(const Telemetry& telemetry, const char* renderer)
{
    fatalIf(!telemetry.config().recordEvents,
            std::string(renderer) +
                ": telemetry ran without event recording");
}

} // namespace

std::string
renderGantt(const Telemetry& telemetry,
            const std::vector<Request>& requests,
            const ModelInfoLut& lut, GanttConfig config)
{
    requireEventLog(telemetry, "renderGantt");
    std::vector<TelemetryEvent> slices;
    for (const TelemetryEvent& ev : telemetry.orderedEvents())
        if (ev.kind == TeleKind::LayerComplete)
            slices.push_back(ev);
    if (slices.empty())
        return "(no schedule events recorded)\n";
    panicIf(config.columns == 0, "renderGantt: zero columns");

    double t0 = config.windowStart;
    double t1 = config.windowEnd;
    if (t1 <= t0) {
        t1 = 0.0;
        for (const TelemetryEvent& ev : slices)
            t1 = std::max(t1, ev.time);
    }
    double span = t1 - t0;
    if (span <= 0.0)
        return "(empty time window)\n";

    // Busy time per request inside the window, for row selection.
    std::map<int, double> busy;
    for (const TelemetryEvent& ev : slices) {
        double lo = std::max(ev.start, t0);
        double hi = std::min(ev.time, t1);
        if (hi > lo)
            busy[ev.request] += hi - lo;
    }
    std::vector<std::pair<int, double>> rows(busy.begin(), busy.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                         return a.second > b.second;
                     });
    if (rows.size() > config.maxRows)
        rows.resize(config.maxRows);
    std::sort(rows.begin(), rows.end());

    std::map<int, const Request*> by_id;
    for (const auto& req : requests)
        by_id[req.id] = &req;

    double col_width = span / static_cast<double>(config.columns);
    char head[96];
    std::snprintf(head, sizeof(head),
                  "Gantt %.4fs .. %.4fs (col = %.4fs)\n", t0, t1,
                  col_width);
    std::string out = head;

    for (const auto& [id, busy_time] : rows) {
        (void)busy_time;
        std::string lane(config.columns, '.');
        for (const TelemetryEvent& ev : slices) {
            size_t c0 = 0;
            size_t c1 = 0;
            if (ev.request == id &&
                columnSpan(std::max(ev.start, t0), std::min(ev.time, t1),
                           t0, col_width, config.columns, c0, c1)) {
                for (size_t c = c0; c <= c1; ++c)
                    lane[c] = '#';
            }
        }
        const Request* req = by_id.count(id) ? by_id.at(id) : nullptr;
        char label[64];
        std::snprintf(label, sizeof(label), "%4d %-10s |", id,
                      req ? lut.lookup(req->model).model.c_str() : "?");
        out += label + lane + "|\n";
    }
    return out;
}

std::string
renderTelemetryGantt(const Telemetry& telemetry,
                     const std::vector<std::string>& node_names,
                     GanttConfig config)
{
    requireEventLog(telemetry, "renderTelemetryGantt");
    panicIf(config.columns == 0, "renderTelemetryGantt: zero columns");

    // Chronological view: undoes the ring rotation when a retention
    // cap bounded the event log.
    const std::vector<TelemetryEvent> events =
        telemetry.orderedEvents();
    if (events.empty())
        return "(no telemetry events recorded)\n";

    double t0 = config.windowStart;
    double t1 = config.windowEnd;
    if (t1 <= t0) {
        t1 = telemetry.runEnd();
        for (const TelemetryEvent& ev : events)
            t1 = std::max(t1, ev.time);
    }
    double span = t1 - t0;
    if (span <= 0.0)
        return "(empty time window)\n";
    double col_width = span / static_cast<double>(config.columns);

    size_t num_nodes =
        std::min(telemetry.nodes().size(), config.maxRows);
    std::vector<std::string> lanes(
        num_nodes, std::string(config.columns, '.'));

    // Execution slices first, then down intervals on top: a failure
    // abandons the in-flight layer, so the lost tail shows as 'x'.
    for (const TelemetryEvent& ev : events) {
        if (ev.kind != TeleKind::LayerComplete || ev.node < 0 ||
            static_cast<size_t>(ev.node) >= num_nodes)
            continue;
        size_t c0 = 0;
        size_t c1 = 0;
        if (columnSpan(std::max(ev.start, t0), std::min(ev.time, t1),
                       t0, col_width, config.columns, c0, c1)) {
            for (size_t c = c0; c <= c1; ++c)
                lanes[static_cast<size_t>(ev.node)][c] =
                    requestChar(ev.request);
        }
    }

    std::vector<double> down_since(num_nodes, -1.0);
    auto markDown = [&](size_t node, double until) {
        if (down_since[node] < 0.0)
            return;
        size_t c0 = 0;
        size_t c1 = 0;
        if (columnSpan(std::max(down_since[node], t0),
                       std::min(until, t1), t0, col_width,
                       config.columns, c0, c1)) {
            for (size_t c = c0; c <= c1; ++c)
                lanes[node][c] = 'x';
        }
        down_since[node] = -1.0;
    };
    for (const TelemetryEvent& ev : events) {
        if (ev.node < 0 || static_cast<size_t>(ev.node) >= num_nodes)
            continue;
        auto node = static_cast<size_t>(ev.node);
        if (ev.kind == TeleKind::NodeFail && down_since[node] < 0.0)
            down_since[node] = ev.time;
        else if (ev.kind == TeleKind::NodeRecover)
            markDown(node, ev.time);
    }
    for (size_t node = 0; node < num_nodes; ++node)
        markDown(node, t1);

    char head[112];
    std::snprintf(head, sizeof(head),
                  "Cluster Gantt %.4fs .. %.4fs (col = %.4fs, "
                  "lane char = request id mod 36, x = down)\n",
                  t0, t1, col_width);
    std::string out = head;
    for (size_t node = 0; node < num_nodes; ++node) {
        std::string name =
            node < node_names.size() && !node_names[node].empty()
                ? node_names[node]
                : "node" + std::to_string(node);
        char label[64];
        std::snprintf(label, sizeof(label), "%-15s |", name.c_str());
        out += label + lanes[node] + "|\n";
    }
    if (telemetry.nodes().size() > num_nodes)
        out += "(" +
               std::to_string(telemetry.nodes().size() - num_nodes) +
               " more node lanes truncated by maxRows)\n";
    return out;
}

} // namespace dysta
