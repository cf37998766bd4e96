#include "hw/hw_scheduler.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace dysta {

DystaHwScheduler::DystaHwScheduler(const ModelInfoLut& lut,
                                   const std::vector<ModelDesc>& models,
                                   HwSchedulerConfig config)
    : cfg(config), swLut(&lut), cu(config.precision),
      modelLut(config.lutCapacity), tagFifo(config.fifoDepth),
      etaReg(cu.quantize(config.eta)),
      slackFloorReg(cu.quantize(config.slackFloor)),
      penaltyCapReg(cu.quantize(config.penaltyCap))
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
            entry.recipIsolation =
                cu.quantize(1.0 / std::max(info.avgLatency, 1e-12));
            entry.slackCap =
                cu.quantize(cfg.slackCapFactor * info.avgLatency);
            // remainingFrom ends in the 0 every later layer reads.
            entry.remaining.reserve(info.remainingFrom.size());
            for (double r : info.remainingFrom)
                entry.remaining.push_back(cu.quantize(r));
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
    hostPopped = 0;
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
        hostQueue.pop_front();
        ++hostPopped;
        if (req == nullptr)
            continue; // left before reaching the FIFO
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
    rs.entry = &modelLut.read(req.model);
    rs.resident = tagFifo.push(req.id);
    if (!rs.resident) {
        rs.hostTicket = hostPopped + hostQueue.size();
        hostQueue.push_back(&req);
    }
    state.emplace(req, rs);
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

    const LutEntry& entry = *rs->entry;
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
    rs->gamma = static_cast<float>(std::clamp(coeff.value, 0.25, 4.0));
    schedCycles += coeff.cycles;
}

void
DystaHwScheduler::onComplete(const Request& req, double now)
{
    (void)now;
    const HwRequestState* rs = state.find(req);
    if (rs != nullptr && rs->resident) {
        for (size_t i = 0; i < tagFifo.size(); ++i) {
            if (tagFifo.at(i) == req.id) {
                tagFifo.erase(i);
                break;
            }
        }
    } else if (rs != nullptr) {
        hostQueue[rs->hostTicket - hostPopped] = nullptr;
    }
    state.erase(req);
    backfill();
}

template <typename RequestPtr>
size_t
DystaHwScheduler::pick(const std::vector<RequestPtr>& ready, double now)
{
    ++decisionCount;
    backfill();

    size_t best = ready.size();
    float best_score = 0.0f;
    float recip_queue = cu.quantize(
        1.0 / static_cast<double>(std::max<size_t>(1, ready.size())));

    for (size_t i = 0; i < ready.size(); ++i) {
        const Request& req = *ready[i];
        const HwRequestState* rs = state.find(req);
        if (rs == nullptr || !rs->resident)
            continue; // still in the host-side overflow queue
        const LutEntry& entry = *rs->entry;

        // Time differences are formed on the controller's integer
        // cycle counter (exact) and only the small deltas enter the
        // floating datapath.
        double ddl_minus_now = req.deadline - now;
        double wait = std::max(0.0, now - req.lastRunEnd);
        float avg_remaining = entry.remaining[std::min(
            req.nextLayer, entry.remaining.size() - 1)];

        float score = cu.scoreQuantized(
            rs->gamma, avg_remaining, ddl_minus_now, wait,
            entry.recipIsolation, recip_queue, etaReg, slackFloorReg,
            entry.slackCap, penaltyCapReg);
        schedCycles += 10; // 9-cycle score + argmin comparator stage

        if (best == ready.size() || score < best_score) {
            best = i;
            best_score = score;
        }
    }

    panicIf(best == ready.size(),
            "DystaHwScheduler: no resident request to dispatch");
    return best;
}

size_t
DystaHwScheduler::selectNext(const std::vector<const Request*>& ready,
                             double now)
{
    return pick(ready, now);
}

Request*
DystaHwScheduler::pickNext(const std::vector<Request*>& ready, double now)
{
    return ready[pick(ready, now)];
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
