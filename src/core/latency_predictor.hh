/**
 * @file
 * Sparse latency predictor (Sec. 5.1, Alg. 3).
 *
 * Layer sparsities are strongly linearly correlated across layers
 * (Fig. 9), so a linear model suffices: the monitored sparsity of
 * executed layers yields a sparsity coefficient gamma, and the
 * remaining latency is alpha * gamma * Lat_avg(remaining layers).
 *
 * gamma is computed on densities (1 - sparsity): latency scales with
 * surviving work, so observing *more* zeros than the profile average
 * must *lower* the estimate. This matches the hardware dataflow of
 * Fig. 11(a) with the LUT holding reciprocal average densities.
 *
 * Three estimation strategies are modeled after the paper's Table 4:
 *  - average-all: mean observed density over all executed layers,
 *    baselined against the network-average density;
 *  - last-N: mean observed density of the last N layers, baselined
 *    against the *current layer's* LUT density (Alg. 3 line 4 fetches
 *    only S_avg(i, j)) — the baseline misalignment across layer types
 *    is why last-N trails the other two in Table 4;
 *  - last-one: the last layer's density against its own LUT entry.
 */

#ifndef DYSTA_CORE_LATENCY_PREDICTOR_HH
#define DYSTA_CORE_LATENCY_PREDICTOR_HH

#include <string>
#include <vector>

#include "core/model_info.hh"

namespace dysta {

/**
 * Sparsity-coefficient estimation strategy (Table 4), plus an EMA
 * variant: an exponential moving average over per-layer density
 * ratios (observed density / the layer's own LUT density). The EMA
 * keeps per-layer baselines like last-one but smooths over the
 * window like average-all, and converges toward the request's true
 * density ratio as layers complete.
 */
enum class PredictorStrategy
{
    AverageAll,
    LastN,
    LastOne,
    Ema,
};

std::string toString(PredictorStrategy strategy);

/** Inverse of toString; fatal() listing valid names on a mismatch. */
PredictorStrategy predictorStrategyFromName(const std::string& name);

/** Predictor knobs. */
struct PredictorConfig
{
    PredictorStrategy strategy = PredictorStrategy::LastOne;
    /** Window for last-N (paper grid-searched N = 3). */
    int lastN = 3;
    /** Per-observation weight of the EMA strategy, in (0, 1]. */
    double emaWeight = 0.25;
    /** Hardware sparsity-to-latency effectiveness (Sec. 5.1). */
    double alpha = 1.0;
    /** Clamp range for the sparsity coefficient. */
    double gammaMin = 0.25;
    double gammaMax = 4.0;
};

/** Per-request online latency predictor. */
class SparseLatencyPredictor
{
  public:
    /**
     * @param info LUT entry of the request's model-pattern pair;
     *             must outlive the predictor.
     */
    SparseLatencyPredictor(const ModelInfo& info, PredictorConfig config);

    /** Record the monitored sparsity of a just-executed layer. */
    void observe(size_t layer, double monitored_sparsity);

    /** Current sparsity (density-ratio) coefficient; 1 if no data. */
    double gamma() const;

    /** Predicted latency of the layers from `next_layer` onward. */
    double predictRemaining(size_t next_layer) const;

    /** Predicted end-to-end latency of the whole request. */
    double predictTotal() const;

    /** Forget all observations. */
    void reset();

    size_t observations() const { return count; }

    /** LUT entry of the request's model-pattern pair. */
    const ModelInfo& modelInfo() const { return *info; }

  private:
    const ModelInfo* info;
    PredictorConfig cfg;

    /*
     * Running state instead of an observation history: each strategy
     * folds observations, in arrival order, into just what its gamma()
     * reads, so observe() never allocates. Clamping to
     * [gammaMin, gammaMax] happens only in gamma(), which keeps the
     * result bit-identical to a recompute over the whole history.
     */
    size_t count = 0;
    /** Layer of the latest observation (last-one, last-N baseline). */
    size_t lastLayer = 0;
    /** Density of the latest observation (last-one). */
    double lastDensity = 1.0;
    /** Sum of the observed densities, oldest first (average-all). */
    double densitySum = 0.0;
    /** Unclamped EMA of the per-layer density ratios, prior 1 (ema). */
    double ema = 1.0;
    /** Ring of the last lastN densities (last-N only; sized once). */
    std::vector<double> window;

    double clampGamma(double g) const;
};

} // namespace dysta

#endif // DYSTA_CORE_LATENCY_PREDICTOR_HH
