#include "trace/trace.hh"

#include <string>

#include "util/csv.hh"
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

void
TraceSet::save(const std::string& path) const
{
    CsvWriter out(path);
    out.writeRow(std::vector<std::string>{
        name, toString(fam), toString(patt),
        std::to_string(layerCount())});
    for (const auto& s : samples) {
        std::vector<std::string> row;
        row.reserve(2 + 2 * s.layers.size());
        row.push_back(std::to_string(s.seqLen));
        row.push_back(s.dark ? "1" : "0");
        char buf[40];
        // %.17g round-trips every double exactly, so a cache-loaded
        // registry rebuilds bit-identical LUT entries and schedules.
        for (const auto& layer : s.layers) {
            std::snprintf(buf, sizeof(buf), "%.17g", layer.latency);
            row.push_back(buf);
            std::snprintf(buf, sizeof(buf), "%.17g",
                          layer.monitoredSparsity);
            row.push_back(buf);
        }
        out.writeRow(row);
    }
}

TraceSet
TraceSet::load(const std::string& path)
{
    CsvTable table = readCsv(path);
    fatalIf(table.rows.empty(), "TraceSet::load: empty file " + path);
    const auto& meta = table.rows[0];
    fatalIf(meta.size() < 4, "TraceSet::load: malformed header");

    ModelFamily fam =
        meta[1] == "AttNN" ? ModelFamily::AttNN : ModelFamily::CNN;
    TraceSet set(meta[0], fam, patternFromString(meta[2]));
    size_t layers = static_cast<size_t>(std::stoul(meta[3]));

    for (size_t r = 1; r < table.rows.size(); ++r) {
        const auto& row = table.rows[r];
        fatalIf(row.size() != 2 + 2 * layers,
                "TraceSet::load: malformed sample row");
        SampleTrace s;
        s.seqLen = static_cast<int>(table.cell(r, 0));
        s.dark = table.cell(r, 1) != 0.0;
        s.layers.resize(layers);
        for (size_t l = 0; l < layers; ++l) {
            LayerTrace& layer = s.layers[l];
            layer.latency = table.cell(r, 2 + 2 * l);
            layer.monitoredSparsity = table.cell(r, 3 + 2 * l);
            // strtod accepts "nan" and "inf"; either would silently
            // poison every estimate or monitor reading built on the
            // set, as would a negative latency or a sparsity above 1.
            auto reject = [&](const char* what, size_t col) {
                fatal("TraceSet::load: " + path + ": sample row " +
                      std::to_string(r) + ", layer " +
                      std::to_string(l) + ": invalid " + what + " '" +
                      row[col] + "'");
            };
            if (!layer.validLatency())
                reject("latency", 2 + 2 * l);
            if (!layer.validSparsity())
                reject("sparsity", 3 + 2 * l);
        }
        s.finalize();
        set.add(std::move(s));
    }
    return set;
}

} // namespace dysta
