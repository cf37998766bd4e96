#include "core/estimator.hh"

#include "util/logging.hh"
#include "util/parse.hh"

namespace dysta {

// --- DystaEstimator ---------------------------------------------------------

DystaEstimator::DystaEstimator(const ModelInfoLut& table,
                               PredictorConfig predictor_cfg,
                               bool refine)
    : lut(&table), pcfg(predictor_cfg), refineEnabled(refine)
{
    // Each SparseLatencyPredictor clamps its gamma into [gammaMin, gammaMax].
    fatalIf(!(pcfg.gammaMin <= pcfg.gammaMax),
            "DystaEstimator: need gamma_min <= gamma_max, got gamma_min " +
                shortestDouble(pcfg.gammaMin) + ", gamma_max " +
                shortestDouble(pcfg.gammaMax));
}

void
DystaEstimator::reset()
{
    predictors.clear();
}

void
DystaEstimator::admit(const Request& req)
{
    if (!predictors.contains(req))
        predictors.emplace(req, lut->lookup(req.model), pcfg);
}

void
DystaEstimator::observe(const Request& req, double monitored_sparsity)
{
    // Alg. 3 line 3: refine only when the monitor captured the layer.
    if (!refineEnabled || monitored_sparsity < 0.0)
        return;
    SparseLatencyPredictor* predictor = predictors.find(req);
    if (predictor != nullptr && req.nextLayer > 0)
        predictor->observe(req.nextLayer - 1, monitored_sparsity);
}

void
DystaEstimator::release(const Request& req)
{
    predictors.erase(req);
}

double
DystaEstimator::remaining(const Request& req) const
{
    if (const SparseLatencyPredictor* predictor = predictors.find(req))
        return predictor->predictRemaining(req.nextLayer);
    return lut->lookup(req.model).estRemaining(req.nextLayer);
}

double
DystaEstimator::isolated(const Request& req) const
{
    // SLOs are published against the profiled average, so the
    // isolated reference stays the LUT value even for refined
    // requests.
    if (const SparseLatencyPredictor* predictor = predictors.find(req))
        return predictor->modelInfo().avgLatency;
    return lut->lookup(req.model).avgLatency;
}

double
DystaEstimator::gamma(const Request& req) const
{
    const SparseLatencyPredictor* predictor = predictors.find(req);
    return predictor != nullptr ? predictor->gamma() : 1.0;
}

ScaledEstimator::ScaledEstimator(const LatencyEstimator& base,
                                 double speed_factor)
    : inner(&base), speed(speed_factor)
{
    fatalIf(speed_factor <= 0.0,
            "ScaledEstimator: speed factor must be positive");
}

std::string
ScaledEstimator::name() const
{
    return inner->name() + "@x" + std::to_string(speed);
}

} // namespace dysta
