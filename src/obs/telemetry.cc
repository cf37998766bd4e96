/**
 * @file
 * Telemetry sink implementation: event log, per-node series and
 * counters, and estimator accuracy probes (see telemetry.hh).
 */

#include "obs/telemetry.hh"

#include <cmath>

#include "util/csv.hh"
#include "util/logging.hh"

namespace dysta {

std::string
toString(TeleKind kind)
{
    switch (kind) {
      case TeleKind::Arrival:       return "arrival";
      case TeleKind::Dispatch:      return "dispatch";
      case TeleKind::Shed:          return "shed";
      case TeleKind::ExecStart:     return "exec_start";
      case TeleKind::LayerComplete: return "layer_complete";
      case TeleKind::Preempt:       return "preempt";
      case TeleKind::Migrate:       return "migrate";
      case TeleKind::Restart:       return "restart";
      case TeleKind::Complete:      return "complete";
      case TeleKind::NodeDrain:     return "node_drain";
      case TeleKind::NodeFail:      return "node_fail";
      case TeleKind::NodeRecover:   return "node_recover";
      case TeleKind::Timeout:       return "timeout";
      case TeleKind::Retry:         return "retry";
      case TeleKind::Hedge:         return "hedge";
      case TeleKind::HedgeCancel:   return "hedge_cancel";
      case TeleKind::Brownout:      return "brownout";
      case TeleKind::BatchForm:     return "batch_form";
      case TeleKind::BatchJoin:     return "batch_join";
    }
    panic("toString: unhandled TeleKind");
}

Telemetry::Telemetry(TelemetryConfig config) : cfg(config) {}

void
Telemetry::addProbe(const std::string& name,
                    std::unique_ptr<LatencyEstimator> estimator)
{
    panicIf(!estimator, "Telemetry::addProbe: null estimator");
    Probe probe;
    probe.name = name;
    probe.est = std::move(estimator);
    probes.push_back(std::move(probe));
}

void
Telemetry::beginRun(size_t num_nodes)
{
    log.clear();
    perNode.assign(num_nodes, NodeTelemetry{});
    endTime = 0.0;
    counts.fill(0);
    numAbandoned = 0;
    ringHead = 0;
    numDroppedEvents = 0;
    for (Probe& probe : probes) {
        probe.est->reset();
        probe.n = 0;
        probe.sum = probe.sum2 = 0.0;
        probe.isoN = 0;
        probe.isoSum = probe.isoSum2 = 0.0;
    }
}

void
Telemetry::endRun(double now)
{
    endTime = now;
}

NodeTelemetry&
Telemetry::nodeRef(int node)
{
    panicIf(node < 0 || static_cast<size_t>(node) >= perNode.size(),
            "Telemetry: node index out of range (beginRun missing?)");
    return perNode[static_cast<size_t>(node)];
}

void
Telemetry::record(const TelemetryEvent& ev)
{
    ++counts[static_cast<size_t>(ev.kind)];
    if (!cfg.recordEvents)
        return;
    if (cfg.maxEvents == 0 || log.size() < cfg.maxEvents) {
        log.push_back(ev);
        return;
    }
    // Ring: overwrite the oldest retained event.
    log[ringHead] = ev;
    ringHead = (ringHead + 1) % cfg.maxEvents;
    ++numDroppedEvents;
}

void
Telemetry::sample(int node, double now)
{
    if (!cfg.recordSeries)
        return;
    NodeTelemetry& nt = nodeRef(node);
    NodeSample s{now, nt.depth, nt.running};
    if (cfg.maxEvents == 0 || nt.samples.size() < cfg.maxEvents) {
        nt.samples.push_back(s);
        return;
    }
    nt.samples[nt.sampleHead] = s;
    nt.sampleHead = (nt.sampleHead + 1) % cfg.maxEvents;
    ++nt.samplesDropped;
}

std::vector<TelemetryEvent>
Telemetry::orderedEvents() const
{
    std::vector<TelemetryEvent> out;
    out.reserve(log.size());
    out.insert(out.end(), log.begin() + static_cast<long>(ringHead),
               log.end());
    out.insert(out.end(), log.begin(),
               log.begin() + static_cast<long>(ringHead));
    return out;
}

std::vector<NodeSample>
Telemetry::orderedSamples(size_t node) const
{
    panicIf(node >= perNode.size(),
            "Telemetry::orderedSamples: node index out of range");
    const NodeTelemetry& nt = perNode[node];
    std::vector<NodeSample> out;
    out.reserve(nt.samples.size());
    out.insert(out.end(),
               nt.samples.begin() + static_cast<long>(nt.sampleHead),
               nt.samples.end());
    out.insert(out.end(), nt.samples.begin(),
               nt.samples.begin() + static_cast<long>(nt.sampleHead));
    return out;
}

void
Telemetry::arrival(const Request& req, double now)
{
    record({now, TeleKind::Arrival, -1, req.id, -1, 0.0, 0.0, -1});
}

void
Telemetry::dispatch(const Request& req, int node, size_t depth,
                    double now)
{
    NodeTelemetry& nt = nodeRef(node);
    ++nt.dispatched;
    nt.depth = static_cast<int>(depth);
    if (nt.depth > nt.peakQueueDepth)
        nt.peakQueueDepth = nt.depth;
    record({now, TeleKind::Dispatch, node, req.id, -1, 0.0,
            static_cast<double>(depth), -1});
    sample(node, now);
    for (Probe& probe : probes) {
        probe.est->admit(req);
        double residual = probe.est->isolated(req) - req.isolated();
        ++probe.isoN;
        probe.isoSum += residual;
        probe.isoSum2 += residual * residual;
    }
}

void
Telemetry::shed(const Request& req, double now)
{
    record({now, TeleKind::Shed, -1, req.id, -1, 0.0, 0.0, -1});
    for (Probe& probe : probes)
        probe.est->release(req);
}

void
Telemetry::execStart(const Request& req, int node, size_t layer,
                     double now)
{
    NodeTelemetry& nt = nodeRef(node);
    ++nt.layersStarted;
    nt.running = true;
    record({now, TeleKind::ExecStart, node, req.id,
            static_cast<int>(layer), 0.0, 0.0, -1});
    sample(node, now);
}

void
Telemetry::layerComplete(const Request& req, int node, size_t layer,
                         double start, double end, double sparsity)
{
    NodeTelemetry& nt = nodeRef(node);
    ++nt.layersCompleted;
    nt.running = false;
    nt.busySec += end - start;
    record({end, TeleKind::LayerComplete, node, req.id,
            static_cast<int>(layer), start, sparsity, -1});
    sample(node, end);
    // A hedge clone shares its primary's id and run slot: feeding its
    // execution into the probes would corrupt the primary's
    // prediction state, so clones only count in the node-level
    // channels above.
    if (req.isHedgeClone || probes.empty())
        return;
    // Ground truth once per layer, shared by every probe.
    const double truth = req.done() ? 0.0 : req.trueRemaining();
    for (Probe& probe : probes) {
        probe.est->observe(req, sparsity);
        if (req.done())
            continue;
        double residual = probe.est->remaining(req) - truth;
        ++probe.n;
        probe.sum += residual;
        probe.sum2 += residual * residual;
    }
}

void
Telemetry::preempt(const Request& req, int node, double now)
{
    NodeTelemetry& nt = nodeRef(node);
    ++nt.preemptions;
    record({now, TeleKind::Preempt, node, req.id, -1, 0.0, 0.0, -1});
}

void
Telemetry::migrate(const Request& req, int from, int to,
                   size_t from_depth, size_t to_depth, double now)
{
    NodeTelemetry& src = nodeRef(from);
    ++src.migratedOut;
    src.depth = static_cast<int>(from_depth);
    NodeTelemetry& dst = nodeRef(to);
    ++dst.migratedIn;
    dst.depth = static_cast<int>(to_depth);
    if (dst.depth > dst.peakQueueDepth)
        dst.peakQueueDepth = dst.depth;
    record({now, TeleKind::Migrate, to, req.id, -1, 0.0,
            static_cast<double>(to_depth), from});
    sample(from, now);
    sample(to, now);
}

void
Telemetry::restartFromFailure(const Request& req, int node, double now)
{
    record({now, TeleKind::Restart, node, req.id, -1, 0.0, 0.0, -1});
    // The restarted request re-enters through the dispatcher; drop
    // probe state so its re-admission starts a fresh prediction.
    for (Probe& probe : probes)
        probe.est->release(req);
}

void
Telemetry::timeout(const Request& req, int node, int attempt,
                   double now)
{
    record({now, TeleKind::Timeout, node, req.id, -1, 0.0,
            static_cast<double>(attempt), -1});
    // The attempt is void; a retry re-admits through dispatch(), so
    // probe state must restart fresh (mirrors restartFromFailure).
    for (Probe& probe : probes)
        probe.est->release(req);
}

void
Telemetry::retry(const Request& req, int attempt, double now)
{
    record({now, TeleKind::Retry, -1, req.id, -1, 0.0,
            static_cast<double>(attempt), -1});
}

void
Telemetry::hedge(const Request& req, int node, double now)
{
    record({now, TeleKind::Hedge, node, req.id, -1, 0.0, 0.0, -1});
}

void
Telemetry::hedgeCancel(const Request& req, int node, double now)
{
    // No probe release: the copies share an id and run slot, and the
    // winning copy's complete()/the primary's lifecycle owns that
    // state.
    record({now, TeleKind::HedgeCancel, node, req.id, -1, 0.0, 0.0,
            -1});
}

void
Telemetry::brownout(const Request& req, double now)
{
    record({now, TeleKind::Brownout, -1, req.id, -1, 0.0,
            static_cast<double>(req.tier), -1});
}

void
Telemetry::batchForm(const Request& req, int node, size_t occupancy,
                     double now)
{
    record({now, TeleKind::BatchForm, node, req.id, -1, 0.0,
            static_cast<double>(occupancy), -1});
}

void
Telemetry::batchJoin(const Request& req, int node, size_t layer,
                     double now)
{
    record({now, TeleKind::BatchJoin, node, req.id,
            static_cast<int>(layer), 0.0, 0.0, -1});
}

void
Telemetry::nodeChange(int node, NodeEventKind kind, double now)
{
    NodeTelemetry& nt = nodeRef(node);
    switch (kind) {
      case NodeEventKind::Drain:
        ++nt.drains;
        record({now, TeleKind::NodeDrain, node, -1, -1, 0.0, 0.0, -1});
        break;
      case NodeEventKind::Fail:
        ++nt.fails;
        if (nt.running) {
            ++nt.layersAbandoned;
            ++numAbandoned;
        }
        nt.running = false;
        nt.depth = 0;
        record({now, TeleKind::NodeFail, node, -1, -1, 0.0, 0.0, -1});
        break;
      case NodeEventKind::Recover:
        ++nt.recovers;
        record({now, TeleKind::NodeRecover, node, -1, -1, 0.0, 0.0,
                -1});
        break;
    }
    sample(node, now);
}

void
Telemetry::complete(const Request& req, int node, size_t depth,
                    double now)
{
    NodeTelemetry& nt = nodeRef(node);
    ++nt.completed;
    nt.depth = static_cast<int>(depth);
    record({now, TeleKind::Complete, node, req.id, -1, 0.0,
            static_cast<double>(depth), -1});
    sample(node, now);
    for (Probe& probe : probes)
        probe.est->release(req);
}

std::vector<EstimatorAccuracy>
Telemetry::accuracy() const
{
    std::vector<EstimatorAccuracy> out;
    out.reserve(probes.size());
    for (const Probe& probe : probes) {
        EstimatorAccuracy acc;
        acc.estimator = probe.name;
        acc.samples = static_cast<double>(probe.n);
        if (probe.n > 0) {
            acc.bias = probe.sum / static_cast<double>(probe.n);
            acc.rmse =
                std::sqrt(probe.sum2 / static_cast<double>(probe.n));
        }
        acc.isolatedSamples = static_cast<double>(probe.isoN);
        if (probe.isoN > 0) {
            acc.isolatedBias =
                probe.isoSum / static_cast<double>(probe.isoN);
            acc.isolatedRmse = std::sqrt(
                probe.isoSum2 / static_cast<double>(probe.isoN));
        }
        out.push_back(std::move(acc));
    }
    return out;
}

void
writeTimeSeriesCsv(const Telemetry& telemetry,
                   const std::string& path)
{
    fatalIf(!telemetry.config().recordSeries,
            "writeTimeSeriesCsv: telemetry ran without series "
            "recording");
    CsvWriter csv(path);
    csv.writeRow(std::vector<std::string>{"time", "node",
                                          "queue_depth", "running"});
    size_t num_nodes = telemetry.nodes().size();
    for (size_t node = 0; node < num_nodes; ++node)
        for (const NodeSample& s : telemetry.orderedSamples(node))
            csv.writeRow(std::vector<double>{
                s.time, static_cast<double>(node),
                static_cast<double>(s.queueDepth),
                s.running ? 1.0 : 0.0});
}

} // namespace dysta
