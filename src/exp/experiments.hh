/**
 * @file
 * Shared experiment harness for the bench binaries and examples:
 * builds the Phase-1 trace pools, constructs schedulers by name, runs
 * seeded workloads and averages metrics — the glue of Fig. 7.
 */

#ifndef DYSTA_EXP_EXPERIMENTS_HH
#define DYSTA_EXP_EXPERIMENTS_HH

#include <memory>
#include <string>
#include <vector>

#include "accel/eyeriss_v2.hh"
#include "accel/sanger.hh"
#include "core/dysta.hh"
#include "sched/engine.hh"
#include "serve/dispatcher.hh"
#include "workload/workload.hh"

namespace dysta {

/** Everything a scheduling experiment needs, built once. */
struct BenchContext
{
    EyerissV2Model eyeriss;
    SangerModel sanger;
    TraceRegistry registry;
    ModelInfoLut lut;
    /** Architectures of every profiled model (for the HW scheduler). */
    std::vector<ModelDesc> models;

    BenchContext() = default;
    BenchContext(const BenchContext&) = delete;
    BenchContext& operator=(const BenchContext&) = delete;
};

/** Phase-1 setup knobs. */
struct BenchSetup
{
    int samplesPerModel = 300;
    uint64_t seed = 7;
    double cnnSparsityRate = 0.6;
    bool includeAttnn = true;
    bool includeCnn = true;
    /**
     * Hardware configuration of the reference accelerators the
     * Phase-1 profile runs on. Per-node fleet mixes (NodeProfile
     * speed factors) are relative to these, so they parameterize
     * the traces themselves.
     */
    SangerConfig sangerHw;
    EyerissV2Config eyerissHw;
};

/** Profile all benchmark models and build the LUT. */
std::unique_ptr<BenchContext> makeBenchContext(BenchSetup setup = {});

/** Baseline scheduler names in the paper's Table 5 order. */
std::vector<std::string> table5Schedulers();

/** All registered scheduler names (PolicyRegistry::global()). */
std::vector<std::string> allSchedulers();

/**
 * Construct a scheduler from a PolicyRegistry spec, e.g. "Dysta" or
 * "dysta:eta=0.1,beta=0.25". Dysta and Oracle default to the
 * per-scenario tuned eta. fatal() on unknown names, listing the
 * valid ones.
 */
std::unique_ptr<Scheduler>
makeSchedulerByName(const std::string& spec, const BenchContext& ctx,
                    WorkloadKind kind = WorkloadKind::MultiAttNN);

/** Run one generated workload under one policy. */
SimResult runOne(const BenchContext& ctx, const WorkloadConfig& workload,
                 Scheduler& policy);

/**
 * Run `num_seeds` workloads (seeds workload.seed, +1, ...) and return
 * field-wise averaged metrics, as the paper reports.
 */
Metrics runAveraged(const BenchContext& ctx, WorkloadConfig workload,
                    const std::string& scheduler_name, int num_seeds);

/** All registered dispatcher names (PolicyRegistry::global()). */
std::vector<std::string> allDispatchers();

/**
 * Construct a dispatcher from a PolicyRegistry spec, e.g.
 * "least-backlog" or "work-stealing:ratio=4" (`steal_cfg` provides
 * the base work-stealing thresholds spec parameters override).
 * fatal() on unknown names, listing the valid ones.
 */
std::unique_ptr<Dispatcher>
makeDispatcherByName(const std::string& spec, const BenchContext& ctx,
                     WorkStealingConfig steal_cfg = {});

/**
 * Cluster-run spec layered on top of a workload: fleet, policy names
 * and spec strings. `runSweepCell` resolves it into one SimConfig.
 */
struct ClusterRunConfig
{
    /** Homogeneous fleet size (ignored when `nodes` is non-empty). */
    size_t numNodes = 4;
    /** Explicit (possibly heterogeneous) node profiles. */
    std::vector<NodeProfile> nodes;
    /** Front-end placement policy name. */
    std::string dispatcher = "least-backlog";
    /** Per-node scheduling policy name (see makeSchedulerByName). */
    std::string nodeScheduler = "Dysta";
    /** Front-door SLO-aware load shedding. */
    AdmissionConfig admission;
    /**
     * Admission-estimator spec override, e.g. "lut" or
     * "dysta:alpha=0.9" (PolicyRegistry); "" keeps the core's
     * default (a LutEstimator over the context's LUT).
     */
    std::string admissionEstimator;
    /** Scheduled drain/fail/recover transitions. */
    std::vector<NodeEvent> nodeEvents;
    /** Fate of started requests displaced by a node failure. */
    RestartPolicy onFailure = RestartPolicy::Restart;
    /** Thresholds for the work-stealing dispatcher. */
    WorkStealingConfig stealing;

    // --- chaos engine (src/chaos/) -----------------------------------
    /**
     * Failure-process spec, e.g. "mtbf:up=exp@100,down=exp@5" or
     * "mtbf:up=weibull@200:1.5,down=fixed@10,scope=domain"
     * (PolicyRegistry); "" disables fault injection. The process is
     * constructed per run and seeded from the workload seed, so
     * chaos-off runs stay bit-identical to a build without it.
     */
    std::string chaos;
    /** Retry-policy spec, e.g. "retry:max=3,backoff=2"; "" = off. */
    std::string retry;
    /** Hedging spec, e.g. "hedge:quantile=0.95"; "" = off. */
    std::string hedge;
    /** Brown-out spec, e.g. "brownout:step=0.5"; "" = off. */
    std::string brownout;
    /** Tier weights, e.g. "0.6,0.3,0.1"; "" = single tier. */
    std::string tiers;

    // --- dynamic batching (src/batch/) -------------------------------
    /**
     * Batch-formation spec, e.g.
     * "batcher:size=8,delay=2ms,compose=sparsity"; "" = off (runs
     * bit-identical to a build without the subsystem).
     */
    std::string batcher;
};

} // namespace dysta

#endif // DYSTA_EXP_EXPERIMENTS_HH
