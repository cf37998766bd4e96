/**
 * @file
 * ASCII Gantt renderers.
 *
 * Two views share one bucketing scheme (fixed-width columns over a
 * time window):
 *
 *  - `renderGantt`: the per-request view over a run's recorded
 *    `ClusterEvent`s (`SimConfig::recordEvents`) — one row per
 *    request, '#' where it holds an accelerator. Makes preemption
 *    behaviour visible in examples.
 *  - `renderTelemetryGantt`: the cluster view over a recorded
 *    telemetry event stream — one lane per *node*, each execution
 *    slice drawn with a character identifying the request
 *    (id mod 36 -> '0'-'9a-z'), '.' idle and 'x' while the node is
 *    down. Works for any fleet because it consumes the same events
 *    the Chrome-trace exporter does (`sdysta --gantt`).
 */

#ifndef DYSTA_EXP_GANTT_HH
#define DYSTA_EXP_GANTT_HH

#include <string>
#include <vector>

#include "core/model_info.hh"
#include "obs/telemetry.hh"
#include "sim/core.hh"

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
 * Render schedule events as an ASCII Gantt chart.
 * @param events   recorded execution slots (SimResult::events)
 * @param requests the requests the events refer to (for labels)
 * @param lut      the table the requests' ModelKeys index (names)
 */
std::string renderGantt(const std::vector<ClusterEvent>& events,
                        const std::vector<Request>& requests,
                        const ModelInfoLut& lut,
                        GanttConfig config = {});

/**
 * Render a recorded telemetry run as a per-node ASCII Gantt chart
 * (`maxRows` caps the node lanes, not requests). Requires
 * `recordEvents`; fatal() otherwise.
 * @param node_names one display name per node ("node<i>" fallback)
 */
std::string
renderTelemetryGantt(const Telemetry& telemetry,
                     const std::vector<std::string>& node_names,
                     GanttConfig config = {});

} // namespace dysta

#endif // DYSTA_EXP_GANTT_HH
