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
        single_policy->reset();
        EngineConfig ecfg;
        ecfg.layerBlockSize = cell.layerBlockSize;
        sim = singleNodeSimConfig(ecfg);
        dispatcher = std::make_unique<SingleNodeDispatcher>();
        Scheduler& policy = *single_policy;
        factory = [&policy](const NodeProfile&, int) {
            return std::make_unique<ForwardingScheduler>(policy);
        };
    }
    sim.telemetry = sink;
    sim.calendar = cell.calendar;
    sim.metricsKind = cell.metricsKind;

    if (cell.streaming) {
        WorkloadArrivalSource source(cell.workload, ctx.registry);
        return runSimulation(sim, source, *dispatcher, factory);
    }
    std::vector<Request> requests =
        generateWorkload(cell.workload, ctx.registry);
    return runSimulation(sim, requests, *dispatcher, factory);
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
    for (const Metrics& m : runs) {
        avg.antt += m.antt;
        avg.violationRate += m.violationRate;
        avg.sloMissRate += m.sloMissRate;
        avg.throughput += m.throughput;
        avg.goodput += m.goodput;
        avg.stp += m.stp;
        avg.p50Turnaround += m.p50Turnaround;
        avg.p95Turnaround += m.p95Turnaround;
        avg.p99Turnaround += m.p99Turnaround;
        avg.p50Latency += m.p50Latency;
        avg.p95Latency += m.p95Latency;
        avg.p99Latency += m.p99Latency;
        avg.makespan += m.makespan;
        avg.completed += m.completed;
        avg.shed += m.shed;
    }
    double n = static_cast<double>(runs.size());
    avg.antt /= n;
    avg.violationRate /= n;
    avg.sloMissRate /= n;
    avg.throughput /= n;
    avg.goodput /= n;
    avg.stp /= n;
    avg.p50Turnaround /= n;
    avg.p95Turnaround /= n;
    avg.p99Turnaround /= n;
    avg.p50Latency /= n;
    avg.p95Latency /= n;
    avg.p99Latency /= n;
    avg.makespan /= n;
    avg.completed = static_cast<size_t>(
        static_cast<double>(avg.completed) / n);
    avg.shed =
        static_cast<size_t>(static_cast<double>(avg.shed) / n);

    // Pool estimator-accuracy probes exactly: bias and rmse
    // reconstruct the underlying residual sums, so averaging seed
    // replicas equals one run over the union of their residuals.
    avg.estimators = runs[0].estimators;
    for (EstimatorAccuracy& acc : avg.estimators) {
        acc.samples = acc.bias = acc.rmse = 0.0;
        acc.isolatedSamples = acc.isolatedBias = 0.0;
        acc.isolatedRmse = 0.0;
    }
    for (const Metrics& m : runs) {
        panicIf(m.estimators.size() != avg.estimators.size(),
                "averageMetrics: runs carry different probe sets");
        for (size_t i = 0; i < m.estimators.size(); ++i) {
            const EstimatorAccuracy& run_acc = m.estimators[i];
            EstimatorAccuracy& acc = avg.estimators[i];
            panicIf(run_acc.estimator != acc.estimator,
                    "averageMetrics: runs carry different probe "
                    "sets");
            acc.samples += run_acc.samples;
            acc.bias += run_acc.bias * run_acc.samples;
            acc.rmse +=
                run_acc.rmse * run_acc.rmse * run_acc.samples;
            acc.isolatedSamples += run_acc.isolatedSamples;
            acc.isolatedBias +=
                run_acc.isolatedBias * run_acc.isolatedSamples;
            acc.isolatedRmse += run_acc.isolatedRmse *
                                run_acc.isolatedRmse *
                                run_acc.isolatedSamples;
        }
    }
    for (EstimatorAccuracy& acc : avg.estimators) {
        if (acc.samples > 0.0) {
            acc.bias /= acc.samples;
            acc.rmse = std::sqrt(acc.rmse / acc.samples);
        }
        if (acc.isolatedSamples > 0.0) {
            acc.isolatedBias /= acc.isolatedSamples;
            acc.isolatedRmse =
                std::sqrt(acc.isolatedRmse / acc.isolatedSamples);
        }
    }

    // Pool resilience stats field-wise (counts are doubles for
    // exactly this). A grid point's replicas share one config, so
    // either every run is active or none is.
    if (runs[0].resilience.active) {
        ResilienceStats& res = avg.resilience;
        res.active = true;
        res.availability = res.mttr = 0.0;
        res.retryAmplification = res.hedgeWinRate = 0.0;
        res.tiers.assign(runs[0].resilience.tiers.size(),
                         TierStats{});
        for (const Metrics& m : runs) {
            const ResilienceStats& r = m.resilience;
            panicIf(!r.active || r.tiers.size() != res.tiers.size(),
                    "averageMetrics: runs carry different "
                    "resilience configs");
            res.availability += r.availability;
            res.mttr += r.mttr;
            res.failures += r.failures;
            res.timeouts += r.timeouts;
            res.retries += r.retries;
            res.retryAmplification += r.retryAmplification;
            res.hedges += r.hedges;
            res.hedgeWins += r.hedgeWins;
            res.hedgeWinRate += r.hedgeWinRate;
            res.brownoutSheds += r.brownoutSheds;
            for (size_t t = 0; t < res.tiers.size(); ++t) {
                res.tiers[t].completed += r.tiers[t].completed;
                res.tiers[t].violations += r.tiers[t].violations;
                res.tiers[t].shed += r.tiers[t].shed;
                res.tiers[t].goodput += r.tiers[t].goodput;
            }
        }
        res.availability /= n;
        res.mttr /= n;
        res.failures /= n;
        res.timeouts /= n;
        res.retries /= n;
        res.retryAmplification /= n;
        res.hedges /= n;
        res.hedgeWins /= n;
        res.hedgeWinRate /= n;
        res.brownoutSheds /= n;
        for (TierStats& tier : res.tiers) {
            tier.completed /= n;
            tier.violations /= n;
            tier.shed /= n;
            tier.goodput /= n;
        }
    }

    // Pool batching stats field-wise, same contract as resilience:
    // a grid point's replicas share one batcher config, so either
    // every run is active or none is.
    if (runs[0].batching.active) {
        BatchStats& bat = avg.batching;
        bat.active = true;
        for (const Metrics& m : runs) {
            panicIf(!m.batching.active,
                    "averageMetrics: runs carry different batching "
                    "configs");
            bat.formed += m.batching.formed;
            bat.joins += m.batching.joins;
            bat.steps += m.batching.steps;
            bat.meanOccupancy += m.batching.meanOccupancy;
            bat.meanFillWaitSec += m.batching.meanFillWaitSec;
            bat.stragglerTaxSec += m.batching.stragglerTaxSec;
        }
        bat.formed /= n;
        bat.joins /= n;
        bat.steps /= n;
        bat.meanOccupancy /= n;
        bat.meanFillWaitSec /= n;
        bat.stragglerTaxSec /= n;
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
