/**
 * @file
 * The model-information LUT populated by the static scheduler
 * (Sec. 4.1): per (model, sparsity pattern), the offline-profiled
 * average latency, per-layer average latency and per-layer average
 * monitored sparsity. Schedulers use it for every latency estimate;
 * only the Oracle bypasses it.
 */

#ifndef DYSTA_CORE_MODEL_INFO_HH
#define DYSTA_CORE_MODEL_INFO_HH

#include <string>
#include <vector>

#include "sparsity/pattern.hh"
#include "trace/model_key.hh"
#include "trace/trace.hh"

namespace dysta {

/** One LUT entry: offline averages for a model-pattern pair. */
struct ModelInfo
{
    std::string model;
    SparsityPattern pattern = SparsityPattern::Dense;

    /** Average isolated latency (seconds). */
    double avgLatency = 0.0;
    /** Average latency of each layer. */
    std::vector<double> avgLayerLatency;
    /** Average monitored sparsity of each layer. */
    std::vector<double> avgLayerSparsity;
    /** Network-average monitored sparsity. */
    double avgNetworkSparsity = 0.0;
    /**
     * Suffix sums: remainingFrom[l] is the average latency of layers
     * l..end; remainingFrom[layerCount] == 0.
     */
    std::vector<double> remainingFrom;

    /** Average latency still ahead when the next layer is `layer`. */
    double
    estRemaining(size_t layer) const
    {
        return layer < remainingFrom.size() ? remainingFrom[layer] : 0.0;
    }
};

/**
 * Registry of ModelInfo entries, one per (model, pattern) pair and
 * addressed by its interned ModelKey (trace/model_key.hh). A LUT
 * built from a TraceRegistry shares the registry's keys.
 */
class ModelInfoLut
{
  public:
    /** Build and insert an entry from a Phase-1 trace set. */
    void addFromTrace(const TraceSet& traces);

    bool contains(const std::string& model,
                  SparsityPattern pattern) const;

    /** Interned key of a pair; fatal() when missing. */
    ModelKey key(const std::string& model,
                 SparsityPattern pattern) const;

    /** Fetch an entry; fatal() when missing (unprofiled model). */
    const ModelInfo& lookup(const std::string& model,
                            SparsityPattern pattern) const
    {
        return entries[key(model, pattern)];
    }

    /** Fetch an entry by key: the run-path lookup. */
    const ModelInfo& lookup(ModelKey k) const { return entries[k]; }

    size_t size() const { return entries.size(); }

  private:
    ModelKeyTable<ModelInfo> entries;
};

} // namespace dysta

#endif // DYSTA_CORE_MODEL_INFO_HH
