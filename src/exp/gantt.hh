/**
 * @file
 * ASCII Gantt renderers.
 *
 * Two views of one recorded telemetry event stream (a run with
 * `SimConfig::telemetry` set and `TelemetryConfig::recordEvents`)
 * share one bucketing scheme (fixed-width columns over a time
 * window). Both draw the `LayerComplete` execution slices, the same
 * events the Chrome-trace exporter consumes:
 *
 *  - `renderGantt`: the per-request view — one row per request, '#'
 *    where it holds an accelerator. Makes preemption behaviour
 *    visible in examples.
 *  - `renderTelemetryGantt`: the cluster view — one lane per *node*,
 *    each execution slice drawn with a character identifying the
 *    request (id mod 36 -> '0'-'9a-z'), '.' idle and 'x' while the
 *    node is down (`sdysta --gantt`).
 */

#ifndef DYSTA_EXP_GANTT_HH
#define DYSTA_EXP_GANTT_HH

#include <string>
#include <vector>

#include "core/model_info.hh"
#include "obs/telemetry.hh"

namespace dysta {

/** Gantt rendering options. */
struct GanttConfig
{
    /** Chart width in character columns. */
    size_t columns = 72;
    /** Start of the rendered window (seconds). */
    double windowStart = 0.0;
    /** End of the window; <= start means "until the last event". */
    double windowEnd = 0.0;
    /** Maximum number of request rows (longest-running first). */
    size_t maxRows = 24;
};

/**
 * Render a recorded telemetry run as a per-request ASCII Gantt
 * chart. Requires `TelemetryConfig::recordEvents`; fatal() otherwise.
 * @param telemetry the run's sink
 * @param requests  the requests the events refer to (for labels)
 * @param lut       the table the requests' ModelKeys index (names)
 */
std::string renderGantt(const Telemetry& telemetry,
                        const std::vector<Request>& requests,
                        const ModelInfoLut& lut,
                        GanttConfig config = {});

/**
 * Render a recorded telemetry run as a per-node ASCII Gantt chart
 * (`maxRows` caps the node lanes, not requests). Requires
 * `TelemetryConfig::recordEvents`; fatal() otherwise.
 * @param node_names one display name per node ("node<i>" fallback)
 */
std::string
renderTelemetryGantt(const Telemetry& telemetry,
                     const std::vector<std::string>& node_names,
                     GanttConfig config = {});

} // namespace dysta

#endif // DYSTA_EXP_GANTT_HH
