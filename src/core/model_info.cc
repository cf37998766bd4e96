#include "core/model_info.hh"

#include "util/logging.hh"

namespace dysta {

void
ModelInfoLut::addFromTrace(const TraceSet& traces)
{
    fatalIf(traces.empty(), "ModelInfoLut: empty trace set for " +
                                traces.modelName());
    ModelInfo info;
    info.model = traces.modelName();
    info.pattern = traces.pattern();
    info.avgLatency = traces.avgTotalLatency();
    info.avgLayerLatency = traces.avgLayerLatency();
    info.avgLayerSparsity = traces.avgLayerSparsity();

    // Network-average over monitored layers only; unmonitored ones
    // carry the negative sentinel.
    double acc = 0.0;
    size_t monitored = 0;
    for (double s : info.avgLayerSparsity) {
        if (s >= 0.0) {
            acc += s;
            ++monitored;
        }
    }
    info.avgNetworkSparsity =
        monitored ? acc / static_cast<double>(monitored) : 0.0;

    size_t n = info.avgLayerLatency.size();
    info.remainingFrom.assign(n + 1, 0.0);
    for (size_t l = n; l-- > 0;) {
        info.remainingFrom[l] =
            info.remainingFrom[l + 1] + info.avgLayerLatency[l];
    }

    entries.put(traces.key(), std::move(info));
}

bool
ModelInfoLut::contains(const std::string& model,
                       SparsityPattern pattern) const
{
    return entries.find(TraceSet::makeKey(model, pattern)).has_value();
}

ModelKey
ModelInfoLut::key(const std::string& model, SparsityPattern pattern) const
{
    std::string name = TraceSet::makeKey(model, pattern);
    std::optional<ModelKey> k = entries.find(name);
    if (!k)
        fatal("ModelInfoLut: no entry for " + name);
    return *k;
}

} // namespace dysta
