/**
 * @file
 * Phase-1 runtime traces (Sec. 3.3.1).
 *
 * The hardware-simulation phase runs every (model, pattern) pair over
 * a synthetic dataset and records, per input sample, the per-layer
 * latency and monitored sparsity on the target accelerator. Phase 2
 * (scheduling evaluation) replays these traces: a request is one
 * sampled trace. The analytic profile is cheap enough that every run
 * builds its traces in memory; none are written to files.
 */

#ifndef DYSTA_TRACE_TRACE_HH
#define DYSTA_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "models/model.hh"
#include "sparsity/pattern.hh"

namespace dysta {

/** Per-layer runtime record. */
struct LayerTrace
{
    /** Layer latency on the target accelerator (seconds). */
    double latency = 0.0;
    /**
     * Zero-count monitor output for the layer, or a negative value
     * when the monitor captures nothing for it (Alg. 3's "if
     * S_monitor captured" condition): dense linear outputs carry no
     * countable zeros, so only ReLU outputs and attention masks
     * produce monitor events.
     */
    double monitoredSparsity = -1.0;

    bool monitored() const { return monitoredSparsity >= 0.0; }
};

/** One input sample's end-to-end runtime record. */
struct SampleTrace
{
    std::vector<LayerTrace> layers;
    /** Prompt length (1 for CNNs). */
    int seqLen = 1;
    /** Whether the input came from the dark/OOD mixture. */
    bool dark = false;
    /** Cached sum of layer latencies (isolated execution time). */
    double totalLatency = 0.0;
    /** Cached mean monitored sparsity across layers. */
    double avgSparsity = 0.0;
    /**
     * Cumulative-latency prefix sums: cumLatency[l] is the summed
     * latency of layers [0, l), so cumLatency.back() == totalLatency
     * and the ground-truth remainder from any layer is one
     * subtraction. Rebuilt by finalize().
     */
    std::vector<double> cumLatency;

    /** Recompute the cached aggregates from the layer records. */
    void finalize();

    /**
     * Ground-truth latency of layers [next_layer, end) — O(1) via the
     * prefix sums; falls back to the direct sum on a trace that was
     * never finalize()d.
     */
    double remainingFrom(size_t next_layer) const;
};

/** All profiled samples for one (model, pattern) pair. */
class TraceSet
{
  public:
    TraceSet() = default;
    TraceSet(std::string model_name, ModelFamily family,
             SparsityPattern pattern);

    const std::string& modelName() const { return name; }
    ModelFamily family() const { return fam; }
    SparsityPattern pattern() const { return patt; }

    void add(SampleTrace trace);

    size_t size() const { return samples.size(); }
    bool empty() const { return samples.empty(); }
    const SampleTrace& sample(size_t i) const;
    const std::vector<SampleTrace>& all() const { return samples; }

    /** Number of layers (uniform across samples). */
    size_t layerCount() const;

    /** Mean isolated latency across samples. */
    double avgTotalLatency() const;

    /** Mean latency of one layer across samples. */
    const std::vector<double>& avgLayerLatency() const;

    /** Mean monitored sparsity of one layer across samples. */
    const std::vector<double>& avgLayerSparsity() const;

    /** Canonical key for registries: "<model>/<pattern>". */
    std::string key() const;

    static std::string makeKey(const std::string& model_name,
                               SparsityPattern pattern);

  private:
    std::string name;
    ModelFamily fam = ModelFamily::CNN;
    SparsityPattern patt = SparsityPattern::Dense;
    std::vector<SampleTrace> samples;

    // Aggregates are maintained eagerly by add(): every accessor is a
    // plain const read, so a finalized TraceSet can be shared across
    // sweep worker threads without synchronization.
    double avgTotal = 0.0;
    std::vector<double> layerLat;
    std::vector<double> layerSp;
    // Running accumulators behind the averages above.
    double totalSum = 0.0;
    std::vector<double> layerLatSum;
    std::vector<double> layerSpSum;
    std::vector<size_t> layerSpCount;
};

} // namespace dysta

#endif // DYSTA_TRACE_TRACE_HH
