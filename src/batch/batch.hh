/**
 * @file
 * Dynamic batching configuration: knobs and the spec grammar for the
 * batch formation layer of the unified simulation core.
 *
 * Production serving stacks amortize dispatch by executing several
 * requests per accelerator pass; this subsystem brings that to the
 * simulator. A batch is a set of requests co-executing layer steps
 * on one node in lockstep — each member advances its *own* next
 * layer, and the step's wall time is the slowest member's layer
 * latency inflated by a calibrated marginal-member overhead:
 *
 *     step = max_m latency(m.nextLayer) * (1 + overhead * (k - 1))
 *
 * so one dense straggler taxes every sparse member of its batch.
 * That tax is exactly what the *composition* policies manage:
 *
 *     fifo      members in node queue order (the baseline)
 *     greedy    shortest estimated remaining latency first (drain
 *               quick requests to free batch slots sooner)
 *     sparsity  members whose sparsity-refined per-layer estimate is
 *               closest to the anchor's — group requests of similar
 *               predicted density so step time tracks the mean, not
 *               the max, of the queue
 *
 * Requests may join a running batch at layer boundaries (continuous
 * batching); formation may hold an idle node for up to `delay` to
 * let the batch fill. Construction is from compact spec strings (the
 * scenario-file / CLI convention of api/registry.hh):
 *
 *     batcher:size=8,delay=2ms,compose=sparsity,overhead=0.05
 *
 * An empty spec disables batching — the core then runs bit-identical
 * to a build without this subsystem.
 *
 * Pure configuration: no simulation state and no sim includes, so
 * the core (src/sim/core.hh) can embed `BatchConfig` without
 * layering cycles.
 */

#ifndef DYSTA_BATCH_BATCH_HH
#define DYSTA_BATCH_BATCH_HH

#include <cstdint>
#include <string>

namespace dysta {

/** How the formation layer fills a batch around its anchor. */
enum class BatchCompose : uint8_t
{
    Fifo = 0,     ///< node queue order (baseline)
    Greedy = 1,   ///< shortest estimated remaining latency first
    Sparsity = 2, ///< closest predicted per-layer density to anchor
};

std::string toString(BatchCompose compose);

/** Parse "fifo" / "greedy" / "sparsity"; fatal() otherwise. */
BatchCompose batchComposeFromName(const std::string& name);

/** Dynamic-batching knobs of one simulation run. */
struct BatchConfig
{
    bool enabled = false;
    /** Maximum members per batch (>= 1). */
    int maxSize = 8;
    /**
     * Maximum fill wait in seconds: an idle node with fewer than
     * `maxSize` queued requests holds formation until its oldest
     * queued request has waited this long. 0 forms immediately.
     */
    double maxDelaySec = 0.0;
    /** Composition policy filling the batch around the anchor. */
    BatchCompose compose = BatchCompose::Fifo;
    /**
     * Marginal per-member step-time inflation (>= 0): a k-member
     * step costs max-member-latency * (1 + overhead * (k - 1)).
     */
    double overhead = 0.05;
};

/**
 * Parse "batcher:size=,delay=,compose=,overhead="; "" disables.
 * `delay` accepts seconds with an optional unit suffix ("2ms",
 * "0.5s", "0.002"). fatal() on malformed specs or out-of-range
 * parameters.
 */
BatchConfig batchConfigFromSpec(const std::string& spec);

} // namespace dysta

#endif // DYSTA_BATCH_BATCH_HH
