#include "core/latency_predictor.hh"

#include <algorithm>

#include "util/logging.hh"

namespace dysta {

std::string
toString(PredictorStrategy strategy)
{
    switch (strategy) {
      case PredictorStrategy::AverageAll: return "average-all";
      case PredictorStrategy::LastN: return "last-n";
      case PredictorStrategy::LastOne: return "last-one";
      case PredictorStrategy::Ema: return "ema";
    }
    panic("toString: unknown PredictorStrategy");
}

PredictorStrategy
predictorStrategyFromName(const std::string& name)
{
    if (name == "average-all")
        return PredictorStrategy::AverageAll;
    if (name == "last-n")
        return PredictorStrategy::LastN;
    if (name == "last-one")
        return PredictorStrategy::LastOne;
    if (name == "ema")
        return PredictorStrategy::Ema;
    fatal("predictorStrategyFromName: unknown strategy '" + name +
          "'; valid strategies: average-all, last-n, last-one, ema");
}

namespace {

double
density(double sparsity)
{
    return std::clamp(1.0 - sparsity, 1e-3, 1.0);
}

} // namespace

SparseLatencyPredictor::SparseLatencyPredictor(const ModelInfo& model,
                                               PredictorConfig config)
    : info(&model), cfg(config)
{
    fatalIf(cfg.lastN < 1, "SparseLatencyPredictor: lastN must be >= 1");
    fatalIf(cfg.emaWeight <= 0.0 || cfg.emaWeight > 1.0,
            "SparseLatencyPredictor: emaWeight must be in (0, 1]");
    if (cfg.strategy == PredictorStrategy::LastN)
        window.assign(static_cast<size_t>(cfg.lastN), 0.0);
}

void
SparseLatencyPredictor::observe(size_t layer, double monitored_sparsity)
{
    panicIf(layer >= info->avgLayerSparsity.size(),
            "SparseLatencyPredictor::observe: layer out of range");
    panicIf(monitored_sparsity < 0.0,
            "SparseLatencyPredictor::observe: unmonitored layer");
    panicIf(info->avgLayerSparsity[layer] < 0.0,
            "SparseLatencyPredictor::observe: layer has no profiled "
            "sparsity baseline");
    double obs = density(monitored_sparsity);
    switch (cfg.strategy) {
      case PredictorStrategy::AverageAll:
        densitySum += obs;
        break;
      case PredictorStrategy::LastN:
        window[count % window.size()] = obs;
        break;
      case PredictorStrategy::LastOne:
        lastDensity = obs;
        break;
      case PredictorStrategy::Ema: {
        // Each observation contributes its own density ratio against
        // its layer's LUT baseline, folded into an exponential
        // moving average seeded at the profile prior gamma = 1.
        double ratio = obs / density(info->avgLayerSparsity[layer]);
        ema = (1.0 - cfg.emaWeight) * ema + cfg.emaWeight * ratio;
        break;
      }
    }
    lastLayer = layer;
    ++count;
}

double
SparseLatencyPredictor::clampGamma(double g) const
{
    return std::clamp(g, cfg.gammaMin, cfg.gammaMax);
}

double
SparseLatencyPredictor::gamma() const
{
    if (count == 0)
        return 1.0;

    switch (cfg.strategy) {
      case PredictorStrategy::AverageAll: {
        // Observed mean density vs the network-average density.
        double obs = densitySum / static_cast<double>(count);
        double base = density(info->avgNetworkSparsity);
        return clampGamma(obs / base);
      }
      case PredictorStrategy::LastN: {
        // Mean of the last N observations, but baselined on the
        // current layer's LUT entry only (Alg. 3 fetches S_avg(i,j)):
        // mixing layer types into the numerator is what degrades
        // this strategy in Table 4. Summed oldest first.
        size_t n = std::min(window.size(), count);
        double obs = 0.0;
        for (size_t k = count - n; k < count; ++k)
            obs += window[k % window.size()];
        obs /= static_cast<double>(n);
        double base = density(info->avgLayerSparsity[lastLayer]);
        return clampGamma(obs / base);
      }
      case PredictorStrategy::LastOne: {
        double base = density(info->avgLayerSparsity[lastLayer]);
        return clampGamma(lastDensity / base);
      }
      case PredictorStrategy::Ema:
        return clampGamma(ema);
    }
    panic("SparseLatencyPredictor: unknown strategy");
}

double
SparseLatencyPredictor::predictRemaining(size_t next_layer) const
{
    return cfg.alpha * gamma() * info->estRemaining(next_layer);
}

double
SparseLatencyPredictor::predictTotal() const
{
    return cfg.alpha * gamma() * info->avgLatency;
}

void
SparseLatencyPredictor::reset()
{
    count = 0;
    lastLayer = 0;
    lastDensity = 1.0;
    densitySum = 0.0;
    ema = 1.0;
}

} // namespace dysta
