#include "exp/experiments.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

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

std::string
readTextFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

bool
hasTraceCsv(const std::string& dir)
{
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".csv")
            return true;
    }
    return false;
}

} // namespace

std::string
benchSetupFingerprint(const BenchSetup& setup)
{
    // format=3: the fingerprint covers the reference accelerator
    // hardware configuration. The profiled layer latencies are a
    // function of these models, so a cached Phase-1 profile must not
    // survive a hardware change (per-node fleet mixes scale relative
    // to this reference at simulation time and live in the cell
    // config, not the cache).
    char buf[512];
    const SangerConfig& sg = setup.sangerHw;
    const EyerissV2Config& ey = setup.eyerissHw;
    std::snprintf(
        buf, sizeof(buf),
        "format=3 samples=%d seed=%llu cnnRate=%.17g "
        "attnn=%d cnn=%d "
        "sanger=%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g "
        "eyeriss=%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
        setup.samplesPerModel,
        static_cast<unsigned long long>(setup.seed),
        setup.cnnSparsityRate, setup.includeAttnn ? 1 : 0,
        setup.includeCnn ? 1 : 0,
        sg.peCount, sg.clockHz, sg.denseEfficiency,
        sg.sparseEfficiency, sg.maskPredictOverhead,
        sg.minMaskDensity, sg.layerOverheadCycles,
        ey.peCount, ey.clockHz, ey.dramBandwidthBps,
        ey.mappingEfficiency, ey.minEffectiveFraction,
        ey.layerOverheadCycles, ey.bytesPerElement, ey.indexOverhead);
    return buf;
}

std::unique_ptr<BenchContext>
makeBenchContext(BenchSetup setup)
{
    return makeBenchContext(setup, "");
}

std::unique_ptr<BenchContext>
makeBenchContext(BenchSetup setup, const std::string& trace_cache_dir)
{
    auto ctx = std::make_unique<BenchContext>();
    ctx->sanger = SangerModel(setup.sangerHw);
    ctx->eyeriss = EyerissV2Model(setup.eyerissHw);

    const std::string manifest_path =
        trace_cache_dir.empty() ? "" : trace_cache_dir + "/manifest.txt";
    if (!trace_cache_dir.empty() &&
        readTextFile(manifest_path) == benchSetupFingerprint(setup) &&
        hasTraceCsv(trace_cache_dir)) {
        // Cache hit: replay the saved Phase-1 traces instead of
        // re-simulating the accelerators. Prefer the packed binary
        // blob (decimal-parsing the CSVs costs more than profiling);
        // fall back to the CSVs when it is missing or stale.
        if (!TraceRegistry::loadAllBinary(
                trace_cache_dir + "/traces.bin", ctx->registry))
            ctx->registry = TraceRegistry::loadAll(trace_cache_dir);
        for (const std::string& name : benchModelNames(setup))
            ctx->models.push_back(makeModelByName(name));
        // The cold profile yields one set per (model, pattern) with
        // one record per zoo layer; a cache that disagrees would send
        // the run (and Dysta-HW's shape LUT) past model.layers.
        for (const ModelDesc& model : ctx->models) {
            for (SparsityPattern pattern : profiledPatterns(model)) {
                std::string key = TraceSet::makeKey(model.name, pattern);
                if (!ctx->registry.contains(model.name, pattern)) {
                    fatal("makeBenchContext: trace cache '" +
                          trace_cache_dir + "' has no traces for '" +
                          key + "'");
                }
                size_t layers =
                    ctx->registry.get(model.name, pattern).layerCount();
                if (layers != model.layers.size()) {
                    fatal("makeBenchContext: trace cache '" +
                          trace_cache_dir + "': traces for '" + key +
                          "' have " + std::to_string(layers) +
                          " layers, model " + model.name + " has " +
                          std::to_string(model.layers.size()));
                }
            }
        }
        ctx->lut = ctx->registry.buildLut();
        return ctx;
    }

    ProfileConfig pcfg;
    pcfg.numSamples = setup.samplesPerModel;
    pcfg.seed = setup.seed;
    pcfg.cnnSparsityRate = setup.cnnSparsityRate;

    // The model list (benchModelNames) and each model's patterns
    // (profiledPatterns) are defined once so the cold and cache-hit
    // paths cannot drift apart.
    for (const std::string& name : benchModelNames(setup)) {
        ModelDesc model = makeModelByName(name);
        for (SparsityPattern pattern : profiledPatterns(model)) {
            ctx->registry.add(profileModel(model, pattern, ctx->eyeriss,
                                           ctx->sanger, pcfg));
        }
        ctx->models.push_back(std::move(model));
    }

    ctx->lut = ctx->registry.buildLut();

    if (!trace_cache_dir.empty()) {
        // Invalidate first: killing the old manifest before touching
        // any trace file means an interrupted rewrite can never leave
        // a matching manifest over mismatched traces. Then drop stale
        // CSVs from the previous setup and write; the new manifest
        // goes last (a partial write must not look like a valid
        // cache).
        std::error_code ec;
        std::filesystem::create_directories(trace_cache_dir, ec);
        std::filesystem::remove(manifest_path, ec);
        for (const auto& entry :
             std::filesystem::directory_iterator(trace_cache_dir, ec)) {
            if (entry.path().extension() == ".csv")
                std::filesystem::remove(entry.path(), ec);
        }
        ctx->registry.saveAll(trace_cache_dir);
        ctx->registry.saveAllBinary(trace_cache_dir + "/traces.bin");
        std::ofstream manifest(manifest_path);
        fatalIf(!manifest, "makeBenchContext: cannot write " +
                               manifest_path);
        manifest << benchSetupFingerprint(setup);
    }
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
    SchedulerEngine engine;
    return engine.run(requests, policy);
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
