/**
 * @file
 * Whole-model descriptors and the benchmark task taxonomy of Table 3.
 */

#ifndef DYSTA_MODELS_MODEL_HH
#define DYSTA_MODELS_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "models/layer.hh"

namespace dysta {

/** Model family; selects the accelerator (Eyeriss-V2 vs Sanger). */
enum class ModelFamily
{
    CNN,
    AttNN,
};

std::string toString(ModelFamily family);

/** Benchmark deployment scenarios (Table 3). */
enum class Scenario
{
    DataCenter,
    MobilePhone,
    ARVRWearable,
};


/**
 * A benchmark model: an ordered list of schedulable layers plus
 * bookkeeping used by workload generation and the model-info LUT.
 */
struct ModelDesc
{
    std::string name;
    ModelFamily family = ModelFamily::CNN;
    std::string task;   ///< e.g. "image classification"

    std::vector<LayerDesc> layers;

    /** Default sequence length for AttNN shape queries; 1 for CNNs. */
    int defaultSeqLen = 1;

    size_t layerCount() const { return layers.size(); }

    /** Total dense MACs at the given sequence length. */
    uint64_t totalMacs(int seq_len) const;
    uint64_t totalMacs() const { return totalMacs(defaultSeqLen); }

    /** Total weight parameters. */
    uint64_t totalWeights() const;
};

} // namespace dysta

#endif // DYSTA_MODELS_MODEL_HH
