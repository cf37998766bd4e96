/**
 * @file
 * Spec grammar of the dynamic-batching subsystem (see batch.hh).
 */

#include "batch/batch.hh"

#include <cmath>

#include "api/registry.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace dysta {

namespace {

/**
 * Non-negative duration with an optional unit suffix: "2ms", "0.5s"
 * or plain seconds ("0.002").
 */
double
parseDelay(const std::string& token, const std::string& what)
{
    std::string text = token;
    double unit = 1.0;
    if (text.size() > 2 && text.compare(text.size() - 2, 2, "ms") == 0) {
        unit = 1e-3;
        text.erase(text.size() - 2);
    } else if (!text.empty() && text.back() == 's') {
        text.pop_back();
    }
    double value = 0.0;
    fatalIf(!tryParseDouble(text, value) || value < 0.0 ||
                !std::isfinite(value),
            what + ": expected a non-negative duration, got '" +
                token + "'");
    return value * unit;
}

} // namespace

std::string
toString(BatchCompose compose)
{
    switch (compose) {
      case BatchCompose::Fifo:
        return "fifo";
      case BatchCompose::Greedy:
        return "greedy";
      case BatchCompose::Sparsity:
        return "sparsity";
    }
    return "?";
}

BatchCompose
batchComposeFromName(const std::string& name)
{
    if (name == "fifo")
        return BatchCompose::Fifo;
    if (name == "greedy")
        return BatchCompose::Greedy;
    if (name == "sparsity")
        return BatchCompose::Sparsity;
    fatal("batch compose '" + name +
          "': unknown policy (valid: fifo, greedy, sparsity)");
    return BatchCompose::Fifo;
}

BatchConfig
batchConfigFromSpec(const std::string& spec)
{
    BatchConfig cfg;
    if (spec.empty())
        return cfg;
    PolicySpec parsed = parsePolicySpec(spec);
    fatalIf(parsed.name != "batcher",
            "batcher spec '" + spec + "': expected batcher:key=val,...");
    PolicyParams params(parsed);
    cfg.enabled = true;
    cfg.maxSize = params.getInt("size", cfg.maxSize);
    if (params.has("delay"))
        cfg.maxDelaySec = parseDelay(params.getString("delay", ""),
                                     "batcher spec '" + spec + "'");
    cfg.compose = batchComposeFromName(
        params.getString("compose", toString(cfg.compose)));
    cfg.overhead = params.getDouble("overhead", cfg.overhead);
    params.rejectUnconsumed("batcher spec '" + spec + "'");
    fatalIf(cfg.maxSize < 1,
            "batcher spec '" + spec + "': size must be >= 1");
    fatalIf(cfg.overhead < 0.0,
            "batcher spec '" + spec + "': overhead must be >= 0");
    return cfg;
}

} // namespace dysta
