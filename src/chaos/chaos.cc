/**
 * @file
 * Spec grammars of the chaos engine (see chaos.hh): dwell-time
 * distributions and the retry / hedge / brown-out / tier knobs.
 */

#include "chaos/chaos.hh"

#include <cmath>

#include "api/registry.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace dysta {

namespace {

/** Strict positive double, with an optional trailing 's' unit. */
double
parseSeconds(const std::string& token, const std::string& what)
{
    std::string text = token;
    if (!text.empty() && text.back() == 's')
        text.pop_back();
    double value = 0.0;
    fatalIf(!tryParseDouble(text, value) || !(value > 0.0) ||
                !std::isfinite(value),
            what + ": expected a positive number, got '" + token +
                "'");
    return value;
}

} // namespace

double
ChaosDist::sample(Rng& rng) const
{
    switch (kind) {
      case Kind::Exp:
        return rng.exponential(1.0 / scale);
      case Kind::Weibull: {
        // Inverse-CDF: scale * (-ln(1 - u))^(1/k); u in [0, 1).
        double u = rng.uniform();
        return scale * std::pow(-std::log1p(-u), 1.0 / shape);
      }
      case Kind::Fixed:
        return scale;
    }
    panic("ChaosDist::sample: unhandled kind");
}

std::string
ChaosDist::str() const
{
    switch (kind) {
      case Kind::Exp:
        return "exp@" + shortestDouble(scale);
      case Kind::Weibull:
        return "weibull@" + shortestDouble(scale) + ":" +
               shortestDouble(shape);
      case Kind::Fixed:
        return "fixed@" + shortestDouble(scale);
    }
    panic("ChaosDist::str: unhandled kind");
}

ChaosDist
chaosDistFromSpec(const std::string& spec)
{
    size_t at = spec.find('@');
    fatalIf(at == std::string::npos || at == 0,
            "chaos dist '" + spec +
                "': expected exp@M, weibull@S:K or fixed@M");
    std::string name = spec.substr(0, at);
    std::string rest = spec.substr(at + 1);

    ChaosDist dist;
    if (name == "exp") {
        dist.kind = ChaosDist::Kind::Exp;
        dist.scale = parseSeconds(rest, "chaos dist '" + spec + "'");
    } else if (name == "fixed") {
        dist.kind = ChaosDist::Kind::Fixed;
        dist.scale = parseSeconds(rest, "chaos dist '" + spec + "'");
    } else if (name == "weibull") {
        dist.kind = ChaosDist::Kind::Weibull;
        size_t colon = rest.find(':');
        fatalIf(colon == std::string::npos,
                "chaos dist '" + spec +
                    "': weibull needs scale and shape (weibull@S:K)");
        dist.scale = parseSeconds(rest.substr(0, colon),
                                  "chaos dist '" + spec + "'");
        dist.shape = parseSeconds(rest.substr(colon + 1),
                                  "chaos dist '" + spec + "'");
    } else {
        fatal("chaos dist '" + spec +
              "': unknown family '" + name +
              "' (valid: exp, weibull, fixed)");
    }
    return dist;
}

RetryConfig
retryConfigFromSpec(const std::string& spec)
{
    RetryConfig cfg;
    if (spec.empty())
        return cfg;
    PolicySpec parsed = parsePolicySpec(spec);
    fatalIf(parsed.name != "retry",
            "retry spec '" + spec + "': expected retry:key=val,...");
    PolicyParams params(parsed);
    cfg.enabled = true;
    cfg.maxRetries = params.getInt("max", cfg.maxRetries);
    cfg.backoff = params.getDouble("backoff", cfg.backoff);
    cfg.timeoutFactor = params.getDouble("timeout", cfg.timeoutFactor);
    cfg.budget = params.getDouble("budget", cfg.budget);
    params.rejectUnconsumed("retry spec '" + spec + "'");
    fatalIf(cfg.maxRetries < 0,
            "retry spec '" + spec + "': max must be >= 0");
    fatalIf(cfg.backoff < 1.0,
            "retry spec '" + spec + "': backoff must be >= 1");
    fatalIf(!(cfg.timeoutFactor > 0.0),
            "retry spec '" + spec + "': timeout must be > 0");
    fatalIf(!(cfg.budget > 0.0),
            "retry spec '" + spec + "': budget must be > 0");
    return cfg;
}

HedgeConfig
hedgeConfigFromSpec(const std::string& spec)
{
    HedgeConfig cfg;
    if (spec.empty())
        return cfg;
    PolicySpec parsed = parsePolicySpec(spec);
    fatalIf(parsed.name != "hedge",
            "hedge spec '" + spec + "': expected hedge:key=val,...");
    PolicyParams params(parsed);
    cfg.enabled = true;
    cfg.quantile = params.getDouble("quantile", cfg.quantile);
    cfg.factor = params.getDouble("factor", cfg.factor);
    cfg.minSamples = params.getInt("min_samples", cfg.minSamples);
    params.rejectUnconsumed("hedge spec '" + spec + "'");
    fatalIf(!(cfg.quantile > 0.0) || !(cfg.quantile < 1.0),
            "hedge spec '" + spec + "': quantile must be in (0, 1)");
    fatalIf(!(cfg.factor > 0.0),
            "hedge spec '" + spec + "': factor must be > 0");
    fatalIf(cfg.minSamples < 1,
            "hedge spec '" + spec + "': min_samples must be >= 1");
    return cfg;
}

BrownoutConfig
brownoutConfigFromSpec(const std::string& spec)
{
    BrownoutConfig cfg;
    if (spec.empty())
        return cfg;
    PolicySpec parsed = parsePolicySpec(spec);
    fatalIf(parsed.name != "brownout",
            "brownout spec '" + spec +
                "': expected brownout:key=val,...");
    PolicyParams params(parsed);
    cfg.enabled = true;
    cfg.step = params.getDouble("step", cfg.step);
    params.rejectUnconsumed("brownout spec '" + spec + "'");
    fatalIf(cfg.step < 0.0,
            "brownout spec '" + spec + "': step must be >= 0");
    return cfg;
}

std::vector<double>
tierWeightsFromSpec(const std::string& spec)
{
    std::vector<double> weights;
    if (spec.empty())
        return weights;
    size_t start = 0;
    while (start <= spec.size()) {
        size_t comma = spec.find(',', start);
        std::string token =
            spec.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        double w = 0.0;
        fatalIf(!tryParseDouble(token, w) || !(w > 0.0) ||
                    !std::isfinite(w),
                "tiers spec '" + spec +
                    "': weights must be positive numbers, got '" +
                    token + "'");
        weights.push_back(w);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    fatalIf(weights.size() > 16,
            "tiers spec '" + spec + "': at most 16 tiers");
    return weights;
}

int
tierOfRequest(int request_id, const std::vector<double>& weights,
              uint64_t seed)
{
    if (weights.size() < 2)
        return 0;
    // splitmix64 finalizer over (id, seed): independent of every
    // workload RNG stream, identical across replays.
    uint64_t z = static_cast<uint64_t>(request_id) +
                 seed * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    double total = 0.0;
    for (double w : weights)
        total += w;
    double u = static_cast<double>(z >> 11) * 0x1.0p-53 * total;
    double cumulative = 0.0;
    for (size_t t = 0; t < weights.size(); ++t) {
        cumulative += weights[t];
        if (u < cumulative)
            return static_cast<int>(t);
    }
    return static_cast<int>(weights.size()) - 1;
}

} // namespace dysta
