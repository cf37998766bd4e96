#include "trace/trace.hh"

#include <string>

#include "util/logging.hh"

namespace dysta {

void
SampleTrace::finalize()
{
    avgSparsity = 0.0;
    size_t monitored = 0;
    cumLatency.assign(layers.size() + 1, 0.0);
    for (size_t l = 0; l < layers.size(); ++l) {
        cumLatency[l + 1] = cumLatency[l] + layers[l].latency;
        if (layers[l].monitored()) {
            avgSparsity += layers[l].monitoredSparsity;
            ++monitored;
        }
    }
    // Same forward accumulation order as before the prefix array
    // existed, so the cached total is bit-identical.
    totalLatency = cumLatency.back();
    if (monitored > 0)
        avgSparsity /= static_cast<double>(monitored);
}

double
SampleTrace::remainingFrom(size_t next_layer) const
{
    if (next_layer >= layers.size())
        return 0.0;
    if (cumLatency.size() == layers.size() + 1)
        return cumLatency.back() - cumLatency[next_layer];
    // Unfinalized trace: direct tail sum.
    double remaining = 0.0;
    for (size_t l = next_layer; l < layers.size(); ++l)
        remaining += layers[l].latency;
    return remaining;
}

TraceSet::TraceSet(std::string model_name, ModelFamily family,
                   SparsityPattern pattern)
    : name(std::move(model_name)), fam(family), patt(pattern)
{
}

void
TraceSet::add(SampleTrace trace)
{
    panicIf(!samples.empty() &&
                trace.layers.size() != samples.front().layers.size(),
            "TraceSet::add: inconsistent layer count");
    samples.push_back(std::move(trace));

    // Fold the new sample into the running sums and refresh the
    // averages eagerly: concurrent readers then never trigger a
    // compute-on-first-read under const (the old lazy-stats race).
    const SampleTrace& s = samples.back();
    size_t layers = s.layers.size();
    if (samples.size() == 1) {
        layerLatSum.assign(layers, 0.0);
        layerSpSum.assign(layers, 0.0);
        layerSpCount.assign(layers, 0);
        layerLat.assign(layers, 0.0);
        layerSp.assign(layers, 0.0);
    }
    totalSum += s.totalLatency;
    for (size_t l = 0; l < layers; ++l) {
        layerLatSum[l] += s.layers[l].latency;
        if (s.layers[l].monitored()) {
            layerSpSum[l] += s.layers[l].monitoredSparsity;
            ++layerSpCount[l];
        }
    }
    double n = static_cast<double>(samples.size());
    avgTotal = totalSum / n;
    for (size_t l = 0; l < layers; ++l) {
        layerLat[l] = layerLatSum[l] / n;
        // Unmonitored layers keep the negative sentinel.
        layerSp[l] = layerSpCount[l]
            ? layerSpSum[l] / static_cast<double>(layerSpCount[l])
            : -1.0;
    }
}

const SampleTrace&
TraceSet::sample(size_t i) const
{
    panicIf(i >= samples.size(), "TraceSet::sample: out of range");
    return samples[i];
}

size_t
TraceSet::layerCount() const
{
    return samples.empty() ? 0 : samples.front().layers.size();
}

double
TraceSet::avgTotalLatency() const
{
    return avgTotal;
}

const std::vector<double>&
TraceSet::avgLayerLatency() const
{
    return layerLat;
}

const std::vector<double>&
TraceSet::avgLayerSparsity() const
{
    return layerSp;
}

std::string
TraceSet::makeKey(const std::string& model_name, SparsityPattern pattern)
{
    return model_name + "/" + toString(pattern);
}

std::string
TraceSet::key() const
{
    return makeKey(name, patt);
}

} // namespace dysta
