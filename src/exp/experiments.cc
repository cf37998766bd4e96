#include "exp/experiments.hh"

#include "api/registry.hh"
#include "exp/sweep.hh"
#include "models/zoo.hh"
#include "trace/profiler.hh"
#include "util/logging.hh"

namespace dysta {

namespace {

/**
 * Benchmark model names for a setup, deduplicated in scenario order
 * (MultiCNN lists ssd300 twice).
 */
std::vector<std::string>
benchModelNames(const BenchSetup& setup)
{
    std::vector<std::string> names;
    auto append = [&names](WorkloadKind kind) {
        for (const std::string& name : workloadModels(kind)) {
            bool known = false;
            for (const auto& n : names)
                known = known || n == name;
            if (!known)
                names.push_back(name);
        }
    };
    if (setup.includeCnn)
        append(WorkloadKind::MultiCNN);
    if (setup.includeAttnn)
        append(WorkloadKind::MultiAttNN);
    return names;
}

/**
 * The patterns Phase 1 profiles a model under: every CNN pruning
 * pattern, or Dense alone for an AttNN (its pruning is dynamic).
 */
std::vector<SparsityPattern>
profiledPatterns(const ModelDesc& model)
{
    if (model.family == ModelFamily::CNN)
        return cnnPatterns();
    return {SparsityPattern::Dense};
}

} // namespace

std::unique_ptr<BenchContext>
makeBenchContext(BenchSetup setup)
{
    auto ctx = std::make_unique<BenchContext>();
    ctx->sanger = SangerModel(setup.sangerHw);
    ctx->eyeriss = EyerissV2Model(setup.eyerissHw);

    ProfileConfig pcfg;
    pcfg.numSamples = setup.samplesPerModel;
    pcfg.seed = setup.seed;
    pcfg.cnnSparsityRate = setup.cnnSparsityRate;

    for (const std::string& name : benchModelNames(setup)) {
        ModelDesc model = makeModelByName(name);
        for (SparsityPattern pattern : profiledPatterns(model)) {
            ctx->registry.add(profileModel(model, pattern, ctx->eyeriss,
                                           ctx->sanger, pcfg));
        }
        ctx->models.push_back(std::move(model));
    }

    ctx->lut = ctx->registry.buildLut();
    return ctx;
}

std::vector<std::string>
table5Schedulers()
{
    return {"FCFS", "SJF", "SDRM3", "PREMA", "Planaria", "Dysta"};
}

std::vector<std::string>
allSchedulers()
{
    return PolicyRegistry::global().schedulerNames();
}

std::unique_ptr<Scheduler>
makeSchedulerByName(const std::string& spec, const BenchContext& ctx,
                    WorkloadKind kind)
{
    return PolicyRegistry::global().makeScheduler(spec, ctx, kind);
}

SimResult
runOne(const BenchContext& ctx, const WorkloadConfig& workload,
       Scheduler& policy)
{
    std::vector<Request> requests =
        generateWorkload(workload, ctx.registry);
    return runSingleNode(singleNodeSimConfig(), requests, policy);
}

Metrics
runAveraged(const BenchContext& ctx, WorkloadConfig workload,
            const std::string& scheduler_name, int num_seeds)
{
    fatalIf(num_seeds <= 0, "runAveraged: need at least one seed");
    SweepCell cell;
    cell.workload = workload;
    cell.scheduler = scheduler_name;

    std::vector<Metrics> runs;
    runs.reserve(static_cast<size_t>(num_seeds));
    for (const SweepCell& c : seedReplicas(cell, num_seeds))
        runs.push_back(runSweepCell(ctx, c).metrics);
    return averageMetrics(runs);
}

std::vector<std::string>
allDispatchers()
{
    return PolicyRegistry::global().dispatcherNames();
}

std::unique_ptr<Dispatcher>
makeDispatcherByName(const std::string& spec, const BenchContext& ctx,
                     WorkStealingConfig steal_cfg)
{
    return PolicyRegistry::global().makeDispatcher(spec, ctx,
                                                   steal_cfg);
}

} // namespace dysta
