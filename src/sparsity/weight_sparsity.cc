#include "sparsity/weight_sparsity.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace dysta {

bool
SparsifiedModel::prunable(const LayerDesc& layer)
{
    switch (layer.kind) {
      case LayerKind::Conv:
      case LayerKind::DepthwiseConv:
      case LayerKind::FullyConnected:
      case LayerKind::TokenFC:
        return true;
      default:
        return false;
    }
}

SparsifiedModel::SparsifiedModel(ModelDesc model, SparsityPattern pattern,
                                 double rate, uint64_t seed)
    : desc(std::move(model)), patt(pattern), targetRate(rate)
{
    fatalIf(!(rate >= 0.0 && rate < 1.0),
            "SparsifiedModel: rate must be in [0, 1)");

    Rng rng(seed ^ 0xD1B54A32D192ED03ULL);
    layers.reserve(desc.layers.size());

    for (const auto& layer : desc.layers) {
        LayerWeightInfo info;
        if (!prunable(layer) || patt == SparsityPattern::Dense ||
            targetRate == 0.0) {
            layers.push_back(info);
            continue;
        }

        switch (patt) {
          case SparsityPattern::RandomPointwise: {
            // Magnitude pruning hits layers unevenly; jitter the
            // per-layer rate while keeping the network average on
            // target. Random masks interact poorly with the PE array:
            // non-zeros land on arbitrary lanes, so utilization drops
            // as the mask becomes more irregular.
            double r = std::clamp(
                targetRate + rng.normal(0.0, 0.02), 0.0, 0.99);
            info.weightDensity = 1.0 - r;
            info.utilization = 0.82 - 0.18 * r;
            break;
          }
          case SparsityPattern::BlockNM: {
            // N:M keeps exactly N of every M weights: density is
            // exact and lanes stay balanced by construction.
            info.weightDensity = 1.0 - targetRate;
            info.utilization = 0.90;
            break;
          }
          case SparsityPattern::ChannelWise: {
            // Whole-channel removal leaves a dense regular kernel:
            // near-ideal utilization. Channel importance correlates
            // with activation firing rate, so the kept subset sees
            // denser-than-average activations; the bias grows as the
            // kept fraction shrinks (stronger selection).
            double kept_frac = std::clamp(1.0 - targetRate, 0.01, 1.0);
            info.weightDensity = kept_frac;
            info.utilization = 0.95;
            double selection = 1.0 - kept_frac; // == rate
            info.keptChannelBias =
                1.0 + 0.40 * selection * selection +
                rng.normal(0.0, 0.02);
            int kept_channels = std::max(
                1, static_cast<int>(std::lround(
                       kept_frac * layer.outChannels)));
            // Finite-subset averaging: fewer kept channels, noisier
            // per-sample effective density.
            info.channelNoiseSigma =
                0.25 / std::sqrt(static_cast<double>(kept_channels));
            break;
          }
          default:
            panic("SparsifiedModel: unexpected pattern");
        }
        layers.push_back(info);
    }
}

const LayerWeightInfo&
SparsifiedModel::layerInfo(size_t layer) const
{
    panicIf(layer >= layers.size(),
            "SparsifiedModel::layerInfo: index out of range");
    return layers[layer];
}

double
SparsifiedModel::validMacFraction(size_t layer, double act_density,
                                  Rng& rng) const
{
    const LayerWeightInfo& info = layerInfo(layer);
    double d = act_density;
    if (patt == SparsityPattern::ChannelWise) {
        d = act_density * info.keptChannelBias *
            (1.0 + rng.normal(0.0, info.channelNoiseSigma));
    }
    d = std::clamp(d, 0.0, 1.0);
    return std::clamp(info.weightDensity * d, 0.0, 1.0);
}

double
SparsifiedModel::avgWeightDensity() const
{
    double acc = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < desc.layers.size(); ++i) {
        if (prunable(desc.layers[i])) {
            acc += layers[i].weightDensity;
            ++n;
        }
    }
    return n ? acc / static_cast<double>(n) : 1.0;
}

} // namespace dysta
