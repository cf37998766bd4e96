#include "hw/hw_scheduler.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace dysta {

DystaHwScheduler::DystaHwScheduler(const ModelInfoLut& lut,
                                   const std::vector<ModelDesc>& models,
                                   HwSchedulerConfig config)
    : cfg(config), swLut(&lut), cu(config.precision),
      modelLut(config.lutCapacity), tagFifo(config.fifoDepth)
{
    // Populate the latency/sparsity/shape LUTs for every profiled
    // model-pattern pair whose architecture we know.
    for (const auto& model : models) {
        auto patterns = model.family == ModelFamily::CNN
            ? cnnPatterns()
            : std::vector<SparsityPattern>{SparsityPattern::Dense};
        for (SparsityPattern pattern : patterns) {
            if (!lut.contains(model.name, pattern))
                continue;
            ModelKey key = lut.key(model.name, pattern);
            const ModelInfo& info = lut.lookup(key);
            // The shape LUT walks model.layers by the profiled layer
            // count; a trace of another architecture would overrun it.
            if (info.avgLayerSparsity.size() != model.layers.size()) {
                panic("DystaHwScheduler: LUT entry " +
                      TraceSet::makeKey(model.name, pattern) + " has " +
                      std::to_string(info.avgLayerSparsity.size()) +
                      " layers, model " + model.name + " has " +
                      std::to_string(model.layers.size()));
            }
            LutEntry entry;
            entry.info = &info;
            entry.recipIsolation =
                1.0 / std::max(info.avgLatency, 1e-12);
            entry.recipAvgDensity.reserve(
                info.avgLayerSparsity.size());
            entry.shape.reserve(model.layers.size());
            for (size_t l = 0; l < info.avgLayerSparsity.size(); ++l) {
                double density = std::clamp(
                    1.0 - info.avgLayerSparsity[l], 1e-3, 1.0);
                entry.recipAvgDensity.push_back(1.0 / density);
                entry.shape.push_back(std::max<uint64_t>(
                    1, model.layers[l].outputElems(
                           model.defaultSeqLen)));
            }
            modelLut.install(key, std::move(entry));
        }
    }
}

void
DystaHwScheduler::reset()
{
    state.clear();
    hostQueue.clear();
    tagFifo.clear();
    cu.resetCounters();
    schedCycles = 0;
    decisionCount = 0;
}

void
DystaHwScheduler::backfill()
{
    while (!hostQueue.empty() && !tagFifo.full()) {
        const Request* req = hostQueue.front();
        hostQueue.erase(hostQueue.begin());
        bool ok = tagFifo.push(req->id);
        panicIf(!ok, "DystaHwScheduler: FIFO push failed on backfill");
        if (HwRequestState* rs = state.find(*req))
            rs->resident = true;
    }
}

void
DystaHwScheduler::onArrival(const Request& req, double now)
{
    (void)now;
    if (!modelLut.contains(req.model)) {
        const ModelInfo& sw = swLut->lookup(req.model);
        fatal("HwLut: missing key " +
              TraceSet::makeKey(sw.model, sw.pattern));
    }
    HwRequestState rs;
    rs.gamma = 1.0;

    // Software static level (Alg. 1) computes the initial score and
    // forwards the request to the hardware FIFOs.
    const ModelInfo& info = *modelLut.read(req.model).info;
    double slo_rel = req.deadline - req.arrival;
    rs.staticScore =
        info.avgLatency + cfg.beta * (slo_rel - info.avgLatency);

    rs.resident = tagFifo.push(req.id);
    state.emplace(req, rs);
    if (!rs.resident)
        hostQueue.push_back(&req);
}

void
DystaHwScheduler::onLayerComplete(const Request& req, double now,
                                  double monitored_sparsity)
{
    (void)now;
    if (monitored_sparsity < 0.0)
        return; // the monitor captured nothing for this layer
    HwRequestState* rs = state.find(req);
    panicIf(rs == nullptr, "DystaHwScheduler: unknown request");

    const LutEntry& entry = modelLut.read(req.model);
    size_t layer = req.nextLayer - 1;
    panicIf(layer >= entry.shape.size(),
            "DystaHwScheduler: layer index out of range");

    // The zero-count monitor supplies (num_zeros, shape); the compute
    // unit in coefficient mode produces gamma (Fig. 11(a)/(c)).
    uint64_t shape = entry.shape[layer];
    auto zeros = static_cast<uint64_t>(std::llround(
        monitored_sparsity * static_cast<double>(shape)));
    zeros = std::min(zeros, shape);
    CuResult coeff = cu.sparsityCoeff(zeros, shape,
                                      entry.recipAvgDensity[layer]);
    // Clamp exactly as the software predictor does.
    rs->gamma = std::clamp(coeff.value, 0.25, 4.0);
    schedCycles += coeff.cycles;
}

void
DystaHwScheduler::onComplete(const Request& req, double now)
{
    (void)now;
    const HwRequestState* rs = state.find(req);
    bool was_resident = rs != nullptr && rs->resident;
    state.erase(req);
    if (was_resident) {
        for (size_t i = 0; i < tagFifo.size(); ++i) {
            if (tagFifo.at(i) == req.id) {
                tagFifo.erase(i);
                break;
            }
        }
    } else {
        auto it = std::find(hostQueue.begin(), hostQueue.end(), &req);
        if (it != hostQueue.end())
            hostQueue.erase(it);
    }
    backfill();
}

size_t
DystaHwScheduler::selectNext(const std::vector<const Request*>& ready,
                             double now)
{
    ++decisionCount;
    backfill();

    size_t best = ready.size();
    double best_score = 0.0;
    double recip_queue =
        1.0 / static_cast<double>(std::max<size_t>(1, ready.size()));

    for (size_t i = 0; i < ready.size(); ++i) {
        const Request& req = *ready[i];
        const HwRequestState* rs = state.find(req);
        if (rs == nullptr || !rs->resident)
            continue; // still in the host-side overflow queue
        const LutEntry& entry = modelLut.read(req.model);

        // Time differences are formed on the controller's integer
        // cycle counter (exact) and only the small deltas enter the
        // floating datapath.
        double ddl_minus_now = req.deadline - now;
        double wait = std::max(0.0, now - req.lastRunEnd);
        double avg_remaining =
            entry.info->estRemaining(req.nextLayer);

        double slack_cap =
            cfg.slackCapFactor * entry.info->avgLatency;
        CuResult sc = cu.score(rs->gamma, avg_remaining, ddl_minus_now,
                               wait, entry.recipIsolation, recip_queue,
                               cfg.eta, cfg.slackFloor, slack_cap,
                               cfg.penaltyCap);
        schedCycles += sc.cycles;
        ++schedCycles; // argmin comparator stage

        if (best == ready.size() || sc.value < best_score) {
            best = i;
            best_score = sc.value;
        }
    }

    panicIf(best == ready.size(),
            "DystaHwScheduler: no resident request to dispatch");
    return best;
}

double
DystaHwScheduler::avgDecisionCycles() const
{
    if (decisionCount == 0)
        return 0.0;
    return static_cast<double>(schedCycles) /
           static_cast<double>(decisionCount);
}

double
DystaHwScheduler::avgDecisionSeconds() const
{
    return avgDecisionCycles() / cfg.clockHz;
}

} // namespace dysta
