/**
 * @file
 * Multi-DNN workload generation (Sec. 6.2).
 *
 * Requests sample a model from the scenario mix and a trace from that
 * model's Phase-1 pool; arrivals follow a Poisson process (MLPerf
 * server scenario) at a configurable rate; each request's SLO is
 * M_slo times its own isolated latency.
 */

#ifndef DYSTA_WORKLOAD_WORKLOAD_HH
#define DYSTA_WORKLOAD_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "core/model_info.hh"
#include "sched/request.hh"
#include "trace/model_key.hh"
#include "trace/trace.hh"
#include "util/rng.hh"
#include "workload/arrival.hh"

namespace dysta {

/** The two multi-tenant scenarios evaluated by the paper. */
enum class WorkloadKind
{
    MultiAttNN, ///< mobile personal assistant: BERT + GPT-2 + BART
    MultiCNN,   ///< visual perception + hand tracking + gestures
};

std::string toString(WorkloadKind kind);

/** Workload-generation parameters. */
struct WorkloadConfig
{
    WorkloadKind kind = WorkloadKind::MultiAttNN;
    /** Base arrival rate in requests/s. */
    double arrivalRate = 30.0;
    /** Arrival process shape (Poisson / bursty MMPP / diurnal). */
    ArrivalConfig arrival;
    /** Latency SLO multiplier M_slo. */
    double sloMultiplier = 10.0;
    /** Requests per workload (paper: 1000). */
    int numRequests = 1000;
    /** Workload seed (paper averages five seeds). */
    uint64_t seed = 42;
};

/**
 * Pool of Phase-1 trace sets, one per (model, pattern) pair and
 * addressed by its interned ModelKey (trace/model_key.hh).
 */
class TraceRegistry
{
  public:
    /** Add a set, replacing any set with the same key. */
    void add(TraceSet traces);

    bool contains(const std::string& model,
                  SparsityPattern pattern) const;

    /**
     * Interned key of a pair; fatal() naming the pair and the
     * registered keys when missing.
     */
    ModelKey key(const std::string& model,
                 SparsityPattern pattern) const;

    const TraceSet& get(const std::string& model,
                        SparsityPattern pattern) const
    {
        return get(key(model, pattern));
    }

    /** The set interned as `k`. */
    const TraceSet& get(ModelKey k) const { return *sets[k]; }

    /** Build the static scheduler's LUT over all registered sets. */
    ModelInfoLut buildLut() const;

    size_t size() const { return sets.size(); }

    /** Keys of all registered trace sets, in ModelKey (sorted) order. */
    const std::vector<std::string>& keys() const { return sets.names(); }

  private:
    /**
     * One heap node per set, as in a map: a set keeps its address
     * while later sets are added, and requests point into it.
     */
    ModelKeyTable<std::unique_ptr<TraceSet>> sets;
};

/** Model mix of a scenario (names from the zoo). */
std::vector<std::string> workloadModels(WorkloadKind kind);

/**
 * A WorkloadKind's (model, pattern) mix resolved against a registry
 * once: each draw picks a model, then a pattern, and returns the
 * pair's key and trace set without a string lookup.
 */
class WorkloadMix
{
  public:
    WorkloadMix(WorkloadKind kind, const TraceRegistry& registry);

    struct Pick
    {
        ModelKey key;
        const TraceSet* set = nullptr;
    };

    /**
     * Draw one pair from `rng` (model, then pattern); fatal() when
     * the registry lacks the drawn pair.
     */
    Pick draw(Rng& rng) const;

  private:
    const TraceRegistry* registry;
    std::vector<std::string> models;
    std::vector<SparsityPattern> patterns;
    /** picks[m * patterns.size() + p]; set == nullptr when missing. */
    std::vector<Pick> picks;
};

/**
 * Generate one workload: every request a WorkloadArrivalSource over
 * `config` emits, in order. Returned requests reference traces owned
 * by the registry, which must outlive them.
 */
std::vector<Request> generateWorkload(const WorkloadConfig& config,
                                      const TraceRegistry& registry);

} // namespace dysta

#endif // DYSTA_WORKLOAD_WORKLOAD_HH
