/**
 * @file
 * Unit tests for the util module: RNG determinism and distribution
 * moments, statistics helpers, histograms, CSV IO, table rendering,
 * IEEE-754 half-precision emulation, JSON emission and the shared
 * ArgParser.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/args.hh"
#include "util/csv.hh"
#include "util/fp16.hh"
#include "util/histogram.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace dysta;

// --- Rng ---

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    OnlineStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(13);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        int64_t v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(17);
    EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Rng, NormalMoments)
{
    Rng rng(19);
    OnlineStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.05);
    EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, ClampedNormalRespectsBounds)
{
    Rng rng(23);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.clampedNormal(0.5, 1.0, 0.2, 0.8);
        EXPECT_GE(v, 0.2);
        EXPECT_LE(v, 0.8);
    }
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    Rng rng(29);
    OnlineStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.exponential(4.0));
    EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, PoissonMeanMatches)
{
    Rng rng(31);
    OnlineStats small;
    OnlineStats large;
    for (int i = 0; i < 20000; ++i) {
        small.add(static_cast<double>(rng.poisson(3.0)));
        large.add(static_cast<double>(rng.poisson(60.0)));
    }
    EXPECT_NEAR(small.mean(), 3.0, 0.1);
    EXPECT_NEAR(large.mean(), 60.0, 0.5);
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(37);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(Rng, WeightedIndexProportions)
{
    Rng rng(41);
    std::vector<double> w = {1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 30000; ++i)
        ++counts[rng.weightedIndex(w)];
    EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.01);
    EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.01);
    EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.01);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(43);
    Rng child = parent.fork();
    // The child stream should not replicate the parent stream.
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(47);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

// --- OnlineStats and helpers ---

TEST(Stats, OnlineBasics)
{
    OnlineStats s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Stats, OnlineMergeMatchesCombined)
{
    Rng rng(53);
    OnlineStats a;
    OnlineStats b;
    OnlineStats all;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.normal(1.0, 2.0);
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, RelativeRange)
{
    OnlineStats s;
    for (double x : {8.0, 10.0, 12.0})
        s.add(x);
    EXPECT_NEAR(s.relativeRange(), 4.0 / 10.0, 1e-12);
}

TEST(Stats, MeanAndStddevOfVector)
{
    std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(v), 5.0);
    EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile({5.0}, 37.0), 5.0);
}

TEST(Stats, SortedPercentileMatchesCheckedWrapper)
{
    // The fast path must agree with the copy-and-sort wrapper on an
    // unsorted series.
    std::vector<double> v = {9.0, 1.0, 5.0, 3.0, 7.0};
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 12.5, 37.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(sortedPercentile(sorted, p), percentile(v, p));
}

TEST(Stats, PercentilePinnedInterpolationValues)
{
    // Known series 10..100: rank = p/100 * (n-1), linear between
    // neighbours. Pins the exact p50/p95/p99 interpolation the
    // metrics layer reports.
    std::vector<double> v;
    for (int i = 1; i <= 10; ++i)
        v.push_back(10.0 * i);
    EXPECT_DOUBLE_EQ(sortedPercentile(v, 50.0), 55.0);  // rank 4.5
    EXPECT_DOUBLE_EQ(sortedPercentile(v, 95.0), 95.5);  // rank 8.55
    EXPECT_DOUBLE_EQ(sortedPercentile(v, 99.0), 99.1);  // rank 8.91
    EXPECT_DOUBLE_EQ(sortedPercentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(sortedPercentile(v, 100.0), 100.0);
}

TEST(Stats, RmseKnownValue)
{
    std::vector<double> pred = {1.0, 2.0, 3.0};
    std::vector<double> ref = {1.0, 4.0, 3.0};
    EXPECT_NEAR(rmse(pred, ref), std::sqrt(4.0 / 3.0), 1e-12);
    EXPECT_DOUBLE_EQ(rmse(ref, ref), 0.0);
}

TEST(Stats, PearsonPerfectAndInverse)
{
    std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
    std::vector<double> b = {2.0, 4.0, 6.0, 8.0};
    std::vector<double> c = {8.0, 6.0, 4.0, 2.0};
    EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
    EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero)
{
    std::vector<double> a = {1.0, 1.0, 1.0};
    std::vector<double> b = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(pearson(a, b), 0.0);
}

TEST(Stats, CorrelationMatrixSymmetricUnitDiagonal)
{
    Rng rng(59);
    std::vector<std::vector<double>> series(3);
    for (int i = 0; i < 200; ++i) {
        double base = rng.normal();
        series[0].push_back(base + 0.1 * rng.normal());
        series[1].push_back(base + 0.1 * rng.normal());
        series[2].push_back(rng.normal());
    }
    auto m = correlationMatrix(series);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_DOUBLE_EQ(m[i][i], 1.0);
        for (size_t j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(m[i][j], m[j][i]);
    }
    EXPECT_GT(m[0][1], 0.9);      // shared latent
    EXPECT_LT(std::abs(m[0][2]), 0.2); // independent
}

// --- Histogram ---

TEST(Histogram, CountsAndDensityIntegrateToOne)
{
    Histogram h(0.0, 1.0, 10);
    Rng rng(61);
    for (int i = 0; i < 10000; ++i)
        h.add(rng.uniform());
    EXPECT_EQ(h.total(), 10000u);
    double integral = 0.0;
    for (size_t b = 0; b < h.bins(); ++b)
        integral += h.density(b) * h.binWidth();
    EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-5.0);
    h.add(7.0);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(3), 1u);
}

TEST(Histogram, BinCenters)
{
    Histogram h(0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(h.binWidth(), 0.25);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 0.125);
    EXPECT_DOUBLE_EQ(h.binCenter(3), 0.875);
}

TEST(Histogram, RenderContainsLabelAndBars)
{
    Histogram h(0.0, 1.0, 2);
    for (int i = 0; i < 10; ++i)
        h.add(0.25);
    std::string out = h.render("mylabel");
    EXPECT_NE(out.find("mylabel"), std::string::npos);
    EXPECT_NE(out.find('#'), std::string::npos);
}

// --- CSV ---

namespace {

/** Bytes a CsvWriter left in `path`; removes the file. */
std::string
takeFileBytes(const std::string& path)
{
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    std::filesystem::remove(path);
    return bytes;
}

} // namespace

TEST(Csv, RoundTripWithEscapes)
{
    // Only fields holding a comma, a quote or a newline are quoted;
    // quotes inside are doubled (RFC 4180).
    std::string path = "/tmp/dysta_test_csv.csv";
    {
        CsvWriter w(path);
        w.writeRow(std::vector<std::string>{
            "plain", "with,comma", "with\"quote", "multi\nline", ""});
        w.writeRow(std::vector<std::string>{"\"", "a b"});
    }
    EXPECT_EQ(takeFileBytes(path),
              "plain,\"with,comma\",\"with\"\"quote\",\"multi\nline\",\n"
              "\"\"\"\",a b\n");
}

TEST(Csv, NumericRoundTrip)
{
    // %.17g is exact: every double, -0 and subnormals included, reads
    // back bit-identical.
    const std::vector<double> values = {1.5,  -2.25, 0.1,  1.0 / 3.0,
                                        1e-9, 1e300, -0.0, 5e-324};
    std::string path = "/tmp/dysta_test_csv_num.csv";
    {
        CsvWriter w(path);
        w.writeRow(values);
    }
    const std::string bytes = takeFileBytes(path);
    EXPECT_EQ(bytes, "1.5,-2.25,0.10000000000000001,0.33333333333333331,"
                     "1.0000000000000001e-09,1.0000000000000001e+300,"
                     "-0,4.9406564584124654e-324\n");

    std::vector<double> parsed;
    const char* p = bytes.c_str();
    for (char* end = nullptr;; p = end + 1) {
        parsed.push_back(std::strtod(p, &end));
        if (*end != ',')
            break;
    }
    ASSERT_EQ(parsed.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(std::memcmp(&parsed[i], &values[i], sizeof(double)),
                  0)
            << i;
    }
}

// --- AsciiTable ---

TEST(Table, RendersHeaderAndRows)
{
    AsciiTable t("title");
    t.setHeader({"col1", "column2"});
    t.addRow({"a", "b"});
    std::string out = t.render();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("col1"), std::string::npos);
    EXPECT_NE(out.find("| a"), std::string::npos);
}

TEST(Table, NumFormatsDecimals)
{
    EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(AsciiTable::num(2.0, 0), "2");
}

// --- Fp16 ---

TEST(Fp16, ExactForSmallIntegers)
{
    for (float v : {0.0f, 1.0f, -1.0f, 2.0f, 1024.0f, -2048.0f}) {
        EXPECT_EQ(Fp16(v).toFloat(), v);
    }
}

TEST(Fp16, HalfPrecisionUlp)
{
    // 1 + 2^-11 rounds to 1.0 (mantissa has 10 bits).
    EXPECT_EQ(Fp16(1.0f + 0x1.0p-12f).toFloat(), 1.0f);
    // 1 + 2^-10 is exactly representable.
    EXPECT_EQ(Fp16(1.0f + 0x1.0p-10f).toFloat(), 1.0f + 0x1.0p-10f);
}

TEST(Fp16, RoundToNearestEven)
{
    // Halfway between 1.0 and 1+2^-10 rounds to even (1.0).
    EXPECT_EQ(Fp16(1.0f + 0x1.0p-11f).toFloat(), 1.0f);
    // Halfway between 1+2^-10 and 1+2^-9 rounds to even (1+2^-9).
    EXPECT_EQ(Fp16(1.0f + 0x1.8p-10f).toFloat(), 1.0f + 0x1.0p-9f);
}

TEST(Fp16, OverflowToInfinity)
{
    EXPECT_TRUE(std::isinf(Fp16(70000.0f).toFloat()));
    EXPECT_TRUE(std::isinf(Fp16(-70000.0f).toFloat()));
    EXPECT_LT(Fp16(-70000.0f).toFloat(), 0.0f);
}

TEST(Fp16, MaxFiniteValue)
{
    EXPECT_EQ(Fp16(65504.0f).toFloat(), 65504.0f);
}

TEST(Fp16, SubnormalsRepresented)
{
    float smallest_subnormal = 0x1.0p-24f;
    EXPECT_EQ(Fp16(smallest_subnormal).toFloat(), smallest_subnormal);
    // Below half of the smallest subnormal flushes to zero.
    EXPECT_EQ(Fp16(0x1.0p-26f).toFloat(), 0.0f);
}

TEST(Fp16, NanPreserved)
{
    EXPECT_TRUE(std::isnan(
        Fp16(std::numeric_limits<float>::quiet_NaN()).toFloat()));
}

TEST(Fp16, SignedZero)
{
    EXPECT_EQ(Fp16(-0.0f).raw(), 0x8000u);
    EXPECT_EQ(Fp16(0.0f).raw(), 0x0000u);
}

TEST(Fp16, ArithmeticRoundsEachOperation)
{
    Fp16 a(0.1);
    Fp16 b(0.2);
    Fp16 c = a + b;
    // Result is the FP16 rounding of the FP32 sum of the two
    // FP16-rounded inputs.
    float expect = halfBitsToFloat(
        floatToHalfBits(a.toFloat() + b.toFloat()));
    EXPECT_EQ(c.toFloat(), expect);
}

TEST(Fp16, ComparisonOperators)
{
    EXPECT_TRUE(Fp16(1.0) < Fp16(2.0));
    EXPECT_TRUE(Fp16(2.0) > Fp16(1.0));
    EXPECT_TRUE(Fp16(1.5) == Fp16(1.5));
}

namespace {

uint32_t
floatBits(float f)
{
    uint32_t x;
    std::memcpy(&x, &f, sizeof(x));
    return x;
}

/**
 * Counts binary32 patterns where roundToHalf differs from the
 * conversion round-trip, keeping the first one for the message.
 */
struct RoundToHalfCheck
{
    size_t checked = 0;
    size_t mismatches = 0;
    uint32_t first = 0;

    void
    operator()(uint32_t x)
    {
        float f;
        std::memcpy(&f, &x, sizeof(f));
        ++checked;
        if (floatBits(roundToHalf(f)) !=
                floatBits(halfBitsToFloat(floatToHalfBits(f))) &&
            mismatches++ == 0)
            first = x;
    }

    /** x and the binary32 patterns on either side of it. */
    void
    around(uint32_t x)
    {
        (*this)(x - 1);
        (*this)(x);
        (*this)(x + 1);
    }
};

} // namespace

TEST(Fp16, RoundToHalfMatchesConversionRoundTrip)
{
    RoundToHalfCheck check;
    for (uint32_t h = 0; h < 0x10000u; ++h) {
        // Every half value and its float neighbours, then every
        // midpoint to the next half of larger magnitude (exact in
        // binary32) and its neighbours, where ties to even decide.
        auto bits = static_cast<uint16_t>(h);
        check.around(floatBits(halfBitsToFloat(bits)));
        if ((h & 0x7FFFu) < 0x7BFFu) {
            float lo = halfBitsToFloat(bits);
            float hi = halfBitsToFloat(static_cast<uint16_t>(h + 1));
            check.around(floatBits((lo + hi) / 2.0f));
        }
    }
    for (float v : {0.0f, std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::signaling_NaN(),
                    65504.0f, 65519.99f, 65520.0f, 0x1.0p-14f,
                    0x1.0p-24f, 0x1.0p-25f}) {
        check.around(floatBits(v));
        check.around(floatBits(-v));
    }
    for (uint32_t nan : {0x7F800001u, 0x7FBFFFFFu, 0x7FC00001u,
                         0x7FFFFFFFu}) {
        check.around(nan);
        check.around(nan | 0x80000000u);
    }
    Rng rng(19);
    for (int i = 0; i < 3000000; ++i)
        check(static_cast<uint32_t>(rng.next()));

    // Halves and midpoints, 10 named values and 4 NaN patterns of
    // both signs (3 patterns each), then the random draws.
    EXPECT_EQ(check.checked, 3u * (0x10000u + 2u * 0x7BFFu) +
                                 3u * 2u * (10u + 4u) + 3000000u);
    EXPECT_EQ(check.mismatches, 0u)
        << "first mismatch at binary32 bits 0x" << std::hex
        << check.first;
}

TEST(Fp16, RoundTripAllBitPatternsFinite)
{
    // Every finite half value must survive half -> float -> half.
    for (uint32_t bits = 0; bits < 0x10000u; ++bits) {
        auto h = static_cast<uint16_t>(bits);
        uint32_t exp = (h >> 10) & 0x1Fu;
        if (exp == 0x1Fu)
            continue; // inf / nan
        float f = halfBitsToFloat(h);
        EXPECT_EQ(floatToHalfBits(f), h) << "bits=" << bits;
    }
}

// --- ThreadPool / parallelFor ---

TEST(ThreadPool, RunsAllSubmittedJobs)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(3);
        EXPECT_EQ(pool.size(), 3u);
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 100);
        // A second batch reuses the same workers.
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
    }
    EXPECT_EQ(count.load(), 150);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 40; ++i)
            pool.submit([&count] { ++count; });
        // No wait(): destruction must still run everything.
    }
    EXPECT_EQ(count.load(), 40);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (size_t jobs : {1u, 2u, 5u}) {
        std::vector<int> hits(257, 0);
        parallelFor(hits.size(), jobs,
                    [&hits](size_t i) { hits[i] += 1; });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i], 1) << "i=" << i << " jobs=" << jobs;
    }
}

TEST(ParallelFor, HandlesEmptyAndSingleton)
{
    int calls = 0;
    parallelFor(0, 4, [&calls](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, 4, [&calls](size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesTheFirstException)
{
    std::atomic<int> ran{0};
    try {
        parallelFor(64, 4, [&ran](size_t i) {
            ++ran;
            if (i == 13)
                throw std::runtime_error("cell 13 failed");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "cell 13 failed");
    }
    // Remaining iterations still ran (no early abort mid-sweep).
    EXPECT_EQ(ran.load(), 64);
}

// --- JSON writer ---

TEST(Json, EscapesEveryStringHazard)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
    EXPECT_EQ(jsonEscape("cr\rlf"), "cr\\rlf");
    EXPECT_EQ(jsonEscape(std::string("nul\0byte", 8)),
              "nul\\u0000byte");
    EXPECT_EQ(jsonEscape("\x01\x1f"), "\\u0001\\u001f");
    // UTF-8 multi-byte sequences pass through untouched.
    EXPECT_EQ(jsonEscape("\xc3\xa9"), "\xc3\xa9");
}

TEST(Json, NumbersRoundTripAndNonFiniteBecomeNull)
{
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(std::strtod(jsonNumber(1.0 / 3.0).c_str(), nullptr),
              1.0 / 3.0);
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(INFINITY), "null");
}

TEST(Json, WriterBuildsNestedDocuments)
{
    JsonWriter json;
    json.beginObject();
    json.field("name", "a \"b\" c");
    json.field("count", 3);
    json.field("ok", true);
    json.beginObject("nested");
    json.field("x", 1.5);
    json.endObject();
    json.beginArray("items");
    json.element("one");
    json.element(2.0);
    json.endArray();
    json.beginArray("empty");
    json.endArray();
    json.endObject();

    std::string text = json.str();
    EXPECT_NE(text.find("\"name\": \"a \\\"b\\\" c\""),
              std::string::npos);
    EXPECT_NE(text.find("\"count\": 3"), std::string::npos);
    EXPECT_NE(text.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(text.find("\"x\": 1.5"), std::string::npos);
    EXPECT_NE(text.find("\"empty\": []"), std::string::npos);
    // Commas separate members; no trailing comma before a close.
    EXPECT_EQ(text.find(",\n}"), std::string::npos);
    EXPECT_EQ(text.find(",\n  }"), std::string::npos);
}

TEST(Json, WriterRejectsUnbalancedScopes)
{
    JsonWriter open_scope;
    open_scope.beginObject();
    EXPECT_DEATH(open_scope.str(), "unclosed scopes");

    JsonWriter mismatched;
    mismatched.beginObject();
    EXPECT_DEATH(mismatched.endArray(), "without an open array");
}

TEST(Json, ParserReadsEveryValueKind)
{
    JsonValue doc = parseJson(
        R"({"s":"hi","n":-1.5e2,"t":true,"f":false,"z":null,)"
        R"("a":[1,"two",{}],"o":{"inner":3}})");
    ASSERT_TRUE(doc.isObject());
    ASSERT_EQ(doc.members.size(), 7u);
    EXPECT_EQ(doc.find("s")->str, "hi");
    EXPECT_EQ(doc.find("n")->number, -150.0);
    EXPECT_TRUE(doc.find("t")->boolean);
    EXPECT_FALSE(doc.find("f")->boolean);
    EXPECT_TRUE(doc.find("z")->isNull());
    const JsonValue* arr = doc.find("a");
    ASSERT_TRUE(arr->isArray());
    ASSERT_EQ(arr->items.size(), 3u);
    EXPECT_EQ(arr->items[0].number, 1.0);
    EXPECT_EQ(arr->items[1].str, "two");
    EXPECT_TRUE(arr->items[2].isObject());
    EXPECT_EQ(doc.find("o")->find("inner")->number, 3.0);
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, ParserPreservesMemberOrderAndRoundTripsTheWriter)
{
    JsonWriter json;
    json.beginObject();
    json.field("zeta", 1.0);
    json.field("alpha", "a \"b\" \\ c\n");
    json.beginArray("list");
    json.element(1.0 / 3.0);
    json.endArray();
    json.endObject();

    JsonValue doc = parseJson(json.str());
    ASSERT_EQ(doc.members.size(), 3u);
    // Document order, not sorted order.
    EXPECT_EQ(doc.members[0].first, "zeta");
    EXPECT_EQ(doc.members[1].first, "alpha");
    EXPECT_EQ(doc.find("alpha")->str, "a \"b\" \\ c\n");
    EXPECT_EQ(doc.find("list")->items[0].number, 1.0 / 3.0);
}

TEST(Json, ParserDecodesUnicodeEscapes)
{
    // BMP escape and a surrogate pair (U+1F600) to UTF-8.
    JsonValue doc = parseJson(
        "[\"\\u00e9\", \"\\ud83d\\ude00\", \"\\u0041\"]");
    EXPECT_EQ(doc.items[0].str, "\xc3\xa9");
    EXPECT_EQ(doc.items[1].str, "\xf0\x9f\x98\x80");
    EXPECT_EQ(doc.items[2].str, "A");

    // A lone high surrogate cannot be decoded.
    JsonValue out;
    std::string error;
    EXPECT_FALSE(tryParseJson(R"(["\ud83d"])", out, error));
}

TEST(Json, ParserRejectsMalformedDocumentsWithOffsets)
{
    JsonValue out;
    std::string error;
    EXPECT_FALSE(tryParseJson("", out, error));
    EXPECT_FALSE(tryParseJson("{", out, error));
    EXPECT_NE(error.find("offset"), std::string::npos);
    EXPECT_FALSE(tryParseJson("[1,]", out, error));
    EXPECT_FALSE(tryParseJson(R"({"a" 1})", out, error));
    EXPECT_FALSE(tryParseJson(R"("unterminated)", out, error));
    EXPECT_FALSE(tryParseJson("nul", out, error));
    EXPECT_FALSE(tryParseJson("1.2.3", out, error));
    // Trailing garbage after a complete value is rejected.
    EXPECT_FALSE(tryParseJson("{} x", out, error));
    EXPECT_TRUE(tryParseJson("{}  \n", out, error));
}

// --- ArgParser ---

namespace {

ArgParser
benchParser()
{
    ArgParser args("bench_test", "parser under test");
    args.addInt("--requests", 100, "request count");
    args.addDouble("--rate", 2.5, "arrival rate");
    args.addString("--sched", "Dysta", "scheduler spec");
    args.addBool("--admission", false, "admission control");
    args.addSwitch("--verbose", "say more");
    return args;
}

} // namespace

TEST(ArgParser, DefaultsAndSuppliedValues)
{
    const char* argv_c[] = {"prog", "--requests", "123",
                            "--rate=7.25", "--verbose"};
    ArgParser args = benchParser();
    args.parse(5, const_cast<char**>(argv_c));

    EXPECT_EQ(args.getInt("--requests"), 123);
    EXPECT_DOUBLE_EQ(args.getDouble("--rate"), 7.25);
    EXPECT_EQ(args.getString("--sched"), "Dysta");
    EXPECT_FALSE(args.getBool("--admission"));
    EXPECT_TRUE(args.getBool("--verbose"));
    EXPECT_TRUE(args.given("--requests"));
    EXPECT_FALSE(args.given("--sched"));
}

TEST(ArgParser, UnknownFlagIsAHardErrorListingValidFlags)
{
    const char* argv_c[] = {"prog", "--request", "50"};
    ArgParser args = benchParser();
    EXPECT_EXIT(args.parse(3, const_cast<char**>(argv_c)),
                ::testing::ExitedWithCode(1),
                "unknown flag '--request'.*valid flags:"
                ".*--requests.*--rate.*--help for usage");
}

TEST(ArgParser, MalformedValuesAreHardErrors)
{
    {
        const char* argv_c[] = {"prog", "--requests", "many"};
        ArgParser args = benchParser();
        EXPECT_EXIT(args.parse(3, const_cast<char**>(argv_c)),
                    ::testing::ExitedWithCode(1),
                    "--requests expects an integer");
    }
    {
        const char* argv_c[] = {"prog", "--requests"};
        ArgParser args = benchParser();
        EXPECT_EXIT(args.parse(2, const_cast<char**>(argv_c)),
                    ::testing::ExitedWithCode(1),
                    "--requests expects a value");
    }
    {
        const char* argv_c[] = {"prog", "--admission", "maybe"};
        ArgParser args = benchParser();
        EXPECT_EXIT(args.parse(3, const_cast<char**>(argv_c)),
                    ::testing::ExitedWithCode(1),
                    "--admission expects 0/1/true/false");
    }
}

TEST(ArgParser, HelpExitsCleanlyAndUsageNamesEveryFlag)
{
    ArgParser args = benchParser();

    // The generated help page names the program and every flag.
    std::string usage = args.usage();
    EXPECT_NE(usage.find("usage: bench_test"), std::string::npos);
    for (const char* flag : {"--requests", "--rate", "--sched",
                             "--admission", "--verbose", "--help"})
        EXPECT_NE(usage.find(flag), std::string::npos) << flag;
    EXPECT_NE(usage.find("request count"), std::string::npos);
    EXPECT_NE(usage.find("[default: 100]"), std::string::npos);

    // --help goes to stdout (not matchable here) and exits 0.
    const char* argv_c[] = {"prog", "--help"};
    EXPECT_EXIT(args.parse(2, const_cast<char**>(argv_c)),
                ::testing::ExitedWithCode(0), "");
}

TEST(ArgParser, PositionalsByNameAndRequiredErrors)
{
    {
        const char* argv_c[] = {"prog", "input.scn", "--requests",
                                "9"};
        ArgParser args = benchParser();
        args.addPositional("scenario", "scenario file");
        args.parse(4, const_cast<char**>(argv_c));
        EXPECT_EQ(args.positional("scenario"), "input.scn");
        EXPECT_EQ(args.getInt("--requests"), 9);
    }
    {
        const char* argv_c[] = {"prog"};
        ArgParser args = benchParser();
        args.addPositional("scenario", "scenario file");
        EXPECT_EXIT(args.parse(1, const_cast<char**>(argv_c)),
                    ::testing::ExitedWithCode(1),
                    "missing required argument <scenario>");
    }
    {
        const char* argv_c[] = {"prog", "a.scn", "b.scn"};
        ArgParser args = benchParser();
        args.addPositional("scenario", "scenario file");
        EXPECT_EXIT(args.parse(3, const_cast<char**>(argv_c)),
                    ::testing::ExitedWithCode(1),
                    "unexpected argument 'b.scn'");
    }
}
