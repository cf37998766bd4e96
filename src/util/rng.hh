/**
 * @file
 * Deterministic random number generation for all simulators.
 *
 * A self-contained xoshiro256** generator seeded through splitmix64.
 * Every stochastic component in the repository (workload generation,
 * sparsity sampling, arrival processes) draws from an explicitly seeded
 * Rng so experiments are reproducible across platforms; std::mt19937
 * distributions are avoided because their outputs are not guaranteed
 * to be identical across standard library implementations.
 */

#ifndef DYSTA_UTIL_RNG_HH
#define DYSTA_UTIL_RNG_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dysta {

/**
 * xoshiro256** pseudo random generator with distribution helpers.
 *
 * All distribution sampling (uniform, normal, exponential, Poisson) is
 * implemented in-house for cross-platform determinism.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit output. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Standard normal via Box-Muller (cached second variate). */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Normal clamped into [lo, hi]. Used for bounded physical
     * quantities such as sparsity ratios.
     */
    double clampedNormal(double mean, double stddev, double lo, double hi);

    /** Exponential inter-arrival time with the given rate (1/mean). */
    double exponential(double rate);

    /** Poisson-distributed count with the given mean. */
    uint64_t poisson(double mean);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p);

    /** Pick an index in [0, weights.size()) proportionally to weight. */
    size_t weightedIndex(const std::vector<double>& weights);

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(uniformInt(0, i - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child stream (for per-sample generators). */
    Rng fork();

  private:
    uint64_t s[4];
    bool haveCachedNormal = false;
    double cachedNormal = 0.0;
};

} // namespace dysta

#endif // DYSTA_UTIL_RNG_HH
