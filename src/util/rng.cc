#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace dysta {

namespace {

uint64_t
splitmix64(uint64_t& x)
{
    x += 0x9E3779B97F4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto& word : s)
        word = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

double
Rng::uniform()
{
    // Top 53 bits give a uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    panicIf(lo > hi, "uniformInt: lo > hi");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(next() % span);
}

double
Rng::normal()
{
    if (haveCachedNormal) {
        haveCachedNormal = false;
        return cachedNormal;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    double u2 = uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    cachedNormal = r * std::sin(theta);
    haveCachedNormal = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::clampedNormal(double mean, double stddev, double lo, double hi)
{
    double v = normal(mean, stddev);
    if (v < lo)
        return lo;
    if (v > hi)
        return hi;
    return v;
}

double
Rng::exponential(double rate)
{
    panicIf(rate <= 0.0, "exponential: rate must be positive");
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

uint64_t
Rng::poisson(double mean)
{
    panicIf(mean < 0.0, "poisson: mean must be non-negative");
    if (mean == 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth's product method for small means.
        double l = std::exp(-mean);
        uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > l);
        return k - 1;
    }
    // Normal approximation for large means.
    double v = normal(mean, std::sqrt(mean));
    return v < 0.0 ? 0 : static_cast<uint64_t>(v + 0.5);
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

size_t
Rng::weightedIndex(const std::vector<double>& weights)
{
    panicIf(weights.empty(), "weightedIndex: empty weights");
    double total = 0.0;
    for (double w : weights) {
        panicIf(w < 0.0, "weightedIndex: negative weight");
        total += w;
    }
    panicIf(total <= 0.0, "weightedIndex: weights sum to zero");
    double r = uniform() * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork()
{
    return Rng(next());
}

} // namespace dysta
