#include "exp/sweep.hh"

#include <cmath>

#include "api/registry.hh"
#include "chaos/failure.hh"
#include "obs/phase_timer.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/source.hh"

namespace dysta {

namespace {

// Build the cell's private probe sink: counters and accuracy only,
// no event log or series — cheap enough for full sweep grids, and
// thread-safe because nothing is shared between cells.
std::unique_ptr<Telemetry>
makeProbeSink(const BenchContext& ctx,
              const std::vector<std::string>& probes)
{
    TelemetryConfig tcfg;
    tcfg.recordEvents = false;
    tcfg.recordSeries = false;
    auto sink = std::make_unique<Telemetry>(tcfg);
    for (const std::string& spec : probes)
        sink->addProbe(spec,
                       PolicyRegistry::global().makeEstimator(spec,
                                                              ctx));
    return sink;
}

/**
 * Average one stats block, `block(run)` of each run, field by field:
 * each field sums over the runs in run order, then divides; counts
 * take the truncating mean.
 */
template <typename Stats, size_t N, typename Block>
void
averageFields(const StatsField<Stats> (&fields)[N], Stats& avg,
              const std::vector<Metrics>& runs, Block block)
{
    double n = static_cast<double>(runs.size());
    for (const StatsField<Stats>& f : fields) {
        if (f.count) {
            size_t sum = 0;
            for (const Metrics& m : runs)
                sum += block(m)->*f.count;
            avg.*f.count =
                static_cast<size_t>(static_cast<double>(sum) / n);
        } else {
            double sum = 0.0;
            for (const Metrics& m : runs)
                sum += block(m)->*f.real;
            avg.*f.real = sum / n;
        }
    }
}

} // namespace

SweepCellResult
runSweepCell(const BenchContext& ctx, const SweepCell& cell)
{
    const PolicyRegistry& registry = PolicyRegistry::global();
    std::unique_ptr<Telemetry> probe_sink;
    Telemetry* sink = cell.telemetry;
    if (sink == nullptr && !cell.probes.empty()) {
        probe_sink = makeProbeSink(ctx, cell.probes);
        sink = probe_sink.get();
    }

    // Everything the run borrows lives here, so it outlives the
    // runSimulation call below.
    SimConfig sim;
    std::unique_ptr<Dispatcher> dispatcher;
    std::unique_ptr<Scheduler> single_policy;
    std::unique_ptr<FailureProcess> chaos_proc;
    std::unique_ptr<LatencyEstimator> admission_est;
    PolicyFactory factory;

    if (cell.clusterMode) {
        // Cluster cells configure node policies by name and block
        // granularity per NodeProfile; reject the single-accelerator
        // knobs instead of silently ignoring them.
        panicIf(cell.makePolicy != nullptr,
                "runSweepCell: makePolicy is not supported for "
                "cluster cells (use cluster.nodeScheduler)");
        panicIf(cell.layerBlockSize != 1,
                "runSweepCell: set block granularity on the cluster "
                "NodeProfiles, not SweepCell::layerBlockSize");
        const ClusterRunConfig& cluster = cell.cluster;
        if (!cluster.nodes.empty()) {
            sim.nodes = cluster.nodes;
        } else {
            fatalIf(cluster.numNodes == 0,
                    "runSweepCell: need at least one node");
            sim = homogeneousCluster(cluster.numNodes);
        }
        sim.admission = cluster.admission;
        sim.lut = &ctx.lut;
        sim.nodeEvents = cluster.nodeEvents;
        sim.onFailure = cluster.onFailure;

        // The failure process is constructed per run and seeded from
        // the workload seed, so seed replicas see different fault
        // timelines but reruns are bit-identical.
        if (!cluster.chaos.empty()) {
            chaos_proc = registry.makeFailureProcess(cluster.chaos);
            sim.chaos = chaos_proc.get();
        }
        sim.chaosSeed = cell.workload.seed;
        sim.retry = retryConfigFromSpec(cluster.retry);
        sim.hedge = hedgeConfigFromSpec(cluster.hedge);
        sim.brownout = brownoutConfigFromSpec(cluster.brownout);
        sim.tierWeights = tierWeightsFromSpec(cluster.tiers);
        sim.batching = batchConfigFromSpec(cluster.batcher);
        if (!cluster.admissionEstimator.empty()) {
            admission_est =
                registry.makeEstimator(cluster.admissionEstimator, ctx);
            sim.admissionEstimator = admission_est.get();
        }

        dispatcher = makeDispatcherByName(cluster.dispatcher, ctx,
                                          cluster.stealing);
        // A per-node scheduler suffix in the fleet spec
        // ("sanger:2=sjf") overrides the cluster-wide policy for
        // those nodes.
        WorkloadKind kind = cell.workload.kind;
        factory = [&ctx, &cluster, kind](const NodeProfile& profile,
                                         int) {
            const std::string& spec = profile.scheduler.empty()
                                          ? cluster.nodeScheduler
                                          : profile.scheduler;
            return makeSchedulerByName(spec, ctx, kind);
        };
    } else {
        single_policy = cell.makePolicy
            ? cell.makePolicy(ctx)
            : makeSchedulerByName(cell.scheduler, ctx,
                                  cell.workload.kind);
        panicIf(single_policy == nullptr,
                "runSweepCell: cell policy factory returned null");
        EngineConfig ecfg;
        ecfg.layerBlockSize = cell.layerBlockSize;
        sim = singleNodeSimConfig(ecfg);
    }
    sim.telemetry = sink;
    sim.metricsKind = cell.metricsKind;

    // `input` is a request vector or an arrival source.
    auto run = [&](auto& input) {
        return single_policy
                   ? runSingleNode(sim, input, *single_policy)
                   : runSimulation(sim, input, *dispatcher, factory);
    };
    if (cell.streaming) {
        WorkloadArrivalSource source(cell.workload, ctx.registry);
        return run(source);
    }
    std::vector<Request> requests =
        generateWorkload(cell.workload, ctx.registry);
    return run(requests);
}

std::vector<SweepCell>
seedReplicas(const SweepCell& cell, int num_seeds)
{
    fatalIf(num_seeds <= 0, "seedReplicas: need at least one seed");
    std::vector<SweepCell> cells(static_cast<size_t>(num_seeds), cell);
    for (int s = 0; s < num_seeds; ++s)
        cells[static_cast<size_t>(s)].workload.seed =
            cell.workload.seed + static_cast<uint64_t>(s);
    return cells;
}

Metrics
averageMetrics(const std::vector<Metrics>& runs)
{
    fatalIf(runs.empty(), "averageMetrics: no runs");
    Metrics avg;
    averageFields(kMetricsFields, avg, runs,
                  [](const Metrics& m) { return &m; });

    // Pool estimator-accuracy probes exactly: bias and rmse
    // reconstruct the underlying residual sums, so averaging seed
    // replicas equals one run over the union of their residuals.
    avg.estimators = runs[0].estimators;
    for (const Metrics& m : runs) {
        bool same = m.estimators.size() == avg.estimators.size();
        for (size_t i = 0; same && i < m.estimators.size(); ++i)
            same = m.estimators[i].estimator == avg.estimators[i].estimator;
        panicIf(!same, "averageMetrics: runs carry different probe sets");
    }
    using Acc = EstimatorAccuracy;
    for (size_t i = 0; i < avg.estimators.size(); ++i) {
        Acc& acc = avg.estimators[i];
        // One (samples, bias, rmse) series, weighted by samples.
        auto pool = [&](double Acc::*samples, double Acc::*bias,
                        double Acc::*rmse) {
            double weight = 0.0;
            double bias_sum = 0.0;
            double square_sum = 0.0;
            for (const Metrics& m : runs) {
                const Acc& run = m.estimators[i];
                weight += run.*samples;
                bias_sum += run.*bias * run.*samples;
                square_sum += run.*rmse * run.*rmse * run.*samples;
            }
            acc.*samples = weight;
            acc.*bias = weight > 0.0 ? bias_sum / weight : bias_sum;
            acc.*rmse = weight > 0.0 ? std::sqrt(square_sum / weight)
                                     : square_sum;
        };
        pool(&Acc::samples, &Acc::bias, &Acc::rmse);
        pool(&Acc::isolatedSamples, &Acc::isolatedBias,
             &Acc::isolatedRmse);
    }

    // Resilience and batching stats average field-wise (counts are
    // doubles for exactly this). A grid point's replicas share one
    // config, so either every run is active or none is.
    if (runs[0].resilience.active) {
        size_t tiers = runs[0].resilience.tiers.size();
        for (const Metrics& m : runs)
            panicIf(!m.resilience.active ||
                        m.resilience.tiers.size() != tiers,
                    "averageMetrics: runs carry different "
                    "resilience configs");
        avg.resilience.active = true;
        averageFields(kResilienceFields, avg.resilience, runs,
                      [](const Metrics& m) { return &m.resilience; });
        avg.resilience.tiers.resize(tiers);
        for (size_t t = 0; t < tiers; ++t)
            averageFields(kTierFields, avg.resilience.tiers[t], runs,
                          [t](const Metrics& m) {
                              return &m.resilience.tiers[t];
                          });
    }
    if (runs[0].batching.active) {
        for (const Metrics& m : runs)
            panicIf(!m.batching.active,
                    "averageMetrics: runs carry different batching "
                    "configs");
        avg.batching.active = true;
        averageFields(kBatchFields, avg.batching, runs,
                      [](const Metrics& m) { return &m.batching; });
    }
    return avg;
}

std::vector<Metrics>
averageGroups(const std::vector<SweepCellResult>& results,
              int group_size)
{
    fatalIf(group_size <= 0, "averageGroups: invalid group size");
    auto stride = static_cast<size_t>(group_size);
    fatalIf(results.size() % stride != 0,
            "averageGroups: result count not a multiple of the group "
            "size");
    std::vector<Metrics> out;
    out.reserve(results.size() / stride);
    std::vector<Metrics> group(stride);
    for (size_t base = 0; base < results.size(); base += stride) {
        for (size_t s = 0; s < stride; ++s)
            group[s] = results[base + s].metrics;
        out.push_back(averageMetrics(group));
    }
    return out;
}

SweepRunner::SweepRunner(const BenchContext& context, int jobs)
    : ctx(&context),
      numJobs(jobs > 0
                  ? jobs
                  : static_cast<int>(ThreadPool::defaultConcurrency()))
{
}

std::vector<SweepCellResult>
SweepRunner::run(const std::vector<SweepCell>& cells,
                 std::vector<double>* cell_seconds) const
{
    std::vector<SweepCellResult> results(cells.size());
    if (cell_seconds)
        cell_seconds->assign(cells.size(), 0.0);
    const BenchContext& context = *ctx;
    parallelFor(cells.size(), static_cast<size_t>(numJobs),
                [&](size_t i) {
                    WallTimer timer;
                    results[i] = runSweepCell(context, cells[i]);
                    if (cell_seconds)
                        (*cell_seconds)[i] = timer.seconds();
                });
    return results;
}

} // namespace dysta
