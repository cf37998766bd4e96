#include "api/registry.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "chaos/chaos.hh"
#include "chaos/failure.hh"
#include "core/dysta.hh"
#include "core/estimator.hh"
#include "exp/experiments.hh"
#include "hw/hw_scheduler.hh"
#include "sched/fcfs.hh"
#include "sched/oracle.hh"
#include "sched/planaria.hh"
#include "sched/prema.hh"
#include "sched/sdrm3.hh"
#include "sched/sjf.hh"
#include "serve/dispatcher.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace dysta {

namespace {

std::string
lowered(const std::string& s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

double
parseDoubleParam(const std::string& spec_name, const std::string& key,
                 const std::string& text)
{
    // strtod accepts "nan" and "inf"; no parameter means either, and
    // a NaN dwell, period or overhead would hang or abort the run.
    double v = 0.0;
    fatalIf(!tryParseDouble(text, v) || !std::isfinite(v),
            "PolicyRegistry: " + spec_name + ": parameter '" + key +
                "' expects a number, got '" + text + "'");
    return v;
}

/** Predictor knobs shared by the Dysta scheduler and estimators. */
void
applyPredictorParams(PredictorConfig& pcfg, PolicyParams& params)
{
    std::string strategy =
        params.getString("predictor", toString(pcfg.strategy));
    pcfg.strategy = predictorStrategyFromName(strategy);
    pcfg.lastN = params.getInt("last_n", pcfg.lastN);
    pcfg.emaWeight = params.getDouble("ema_weight", pcfg.emaWeight);
    pcfg.alpha = params.getDouble("alpha", pcfg.alpha);
    pcfg.gammaMin = params.getDouble("gamma_min", pcfg.gammaMin);
    pcfg.gammaMax = params.getDouble("gamma_max", pcfg.gammaMax);
}

constexpr const char* kPredictorParamHelp =
    "predictor, last_n, ema_weight, alpha, gamma_min, gamma_max";

} // namespace

PolicySpec
parsePolicySpec(const std::string& spec)
{
    PolicySpec out;
    size_t colon = spec.find(':');
    out.name = spec.substr(0, colon);
    fatalIf(out.name.empty(),
            "parsePolicySpec: empty policy name in '" + spec + "'");
    if (colon == std::string::npos)
        return out;

    std::string rest = spec.substr(colon + 1);
    fatalIf(rest.empty(), "parsePolicySpec: '" + spec +
                              "' has a ':' but no parameters");
    size_t pos = 0;
    while (pos <= rest.size()) {
        size_t comma = rest.find(',', pos);
        std::string item = rest.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        size_t eq = item.find('=');
        fatalIf(eq == std::string::npos || eq == 0,
                "parsePolicySpec: malformed parameter '" + item +
                    "' in '" + spec + "' (want key=value)");
        std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);
        for (const auto& [k, v] : out.params)
            fatalIf(k == key, "parsePolicySpec: duplicate parameter '" +
                                  key + "' in '" + spec + "'");
        out.params.emplace_back(key, value);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

PolicyParams::PolicyParams(const PolicySpec& spec)
    : name(spec.name), params(spec.params),
      used(spec.params.size(), false)
{
}

const std::string*
PolicyParams::lookup(const std::string& key)
{
    if (std::find(known.begin(), known.end(), key) == known.end())
        known.push_back(key);
    for (size_t i = 0; i < params.size(); ++i) {
        if (params[i].first == key) {
            used[i] = true;
            return &params[i].second;
        }
    }
    return nullptr;
}

bool
PolicyParams::has(const std::string& key) const
{
    for (const auto& [k, v] : params) {
        if (k == key)
            return true;
    }
    return false;
}

double
PolicyParams::getDouble(const std::string& key, double fallback)
{
    const std::string* v = lookup(key);
    return v == nullptr ? fallback
                        : parseDoubleParam(name, key, *v);
}

int
PolicyParams::getInt(const std::string& key, int fallback)
{
    const std::string* v = lookup(key);
    if (v == nullptr)
        return fallback;
    int parsed = 0;
    fatalIf(!tryParseInt(*v, parsed),
            "PolicyRegistry: " + name + ": parameter '" + key +
                "' expects an integer, got '" + *v + "'");
    return parsed;
}

bool
PolicyParams::getBool(const std::string& key, bool fallback)
{
    const std::string* v = lookup(key);
    if (v == nullptr)
        return fallback;
    bool parsed = false;
    fatalIf(!tryParseBool(*v, parsed),
            "PolicyRegistry: " + name + ": parameter '" + key +
                "' expects " + kBoolSpellings + ", got '" + *v + "'");
    return parsed;
}

std::string
PolicyParams::getString(const std::string& key,
                        const std::string& fallback)
{
    const std::string* v = lookup(key);
    return v == nullptr ? fallback : *v;
}

std::vector<std::string>
PolicyParams::unconsumed() const
{
    std::vector<std::string> out;
    for (size_t i = 0; i < params.size(); ++i) {
        if (!used[i])
            out.push_back(params[i].first);
    }
    return out;
}

std::vector<std::string>
PolicyParams::consumed() const
{
    return known;
}

void
PolicyParams::rejectUnconsumed(const std::string& grammar) const
{
    std::vector<std::string> left = unconsumed();
    if (left.empty())
        return;
    std::string valid;
    for (const std::string& key : known)
        valid += (valid.empty() ? "" : ", ") + key;
    fatal(grammar + ": unknown parameter '" + left.front() +
          "' (valid: " + (valid.empty() ? "none" : valid) + ")");
}

namespace {

/** Reject any parameter the factory did not read. */
void
rejectUnconsumed(const std::string& kind, const std::string& name,
                 const PolicyParams& params)
{
    std::vector<std::string> extra = params.unconsumed();
    if (extra.empty())
        return;
    fatal("PolicyRegistry: unknown parameter '" + extra.front() +
          "' for " + kind + " '" + name +
          "'; valid parameters: " + joinComma(params.consumed()));
}

template <typename Entry>
const Entry*
findEntry(const std::vector<Entry>& entries, const std::string& name)
{
    std::string want = lowered(name);
    for (const Entry& e : entries) {
        if (lowered(e.name) == want)
            return &e;
    }
    return nullptr;
}

template <typename Entry>
const Entry&
requireEntry(const std::vector<Entry>& entries, const std::string& kind,
             const std::string& name)
{
    const Entry* e = findEntry(entries, name);
    if (e != nullptr)
        return *e;
    std::vector<std::string> names;
    for (const Entry& entry : entries)
        names.push_back(entry.name);
    // "... process" pluralizes as "processes", the rest with "s".
    bool is_process = kind.size() >= 7 &&
                      kind.compare(kind.size() - 7, 7, "process") == 0;
    std::string plural = is_process ? kind + "es" : kind + "s";
    fatal("PolicyRegistry: unknown " + kind + " '" + name +
          "'; valid " + plural + ": " + joinComma(names));
}

template <typename Entry, typename Factory>
void
addEntry(std::vector<Entry>& entries, const std::string& kind,
         const std::string& name, const std::string& params,
         const std::string& description, Factory factory)
{
    fatalIf(name.empty() || name.find(':') != std::string::npos ||
                name.find('|') != std::string::npos,
            "PolicyRegistry: invalid " + kind + " name '" + name +
                "' (must be non-empty, without ':' or '|')");
    fatalIf(findEntry(entries, name) != nullptr,
            "PolicyRegistry: duplicate " + kind + " '" + name + "'");
    entries.push_back({name, params, description, std::move(factory)});
}

template <typename Entry>
std::vector<std::string>
entryNames(const std::vector<Entry>& entries)
{
    std::vector<std::string> out;
    for (const Entry& e : entries)
        out.push_back(e.name);
    return out;
}

template <typename Entry>
std::vector<PolicyInfo>
entryTable(const std::vector<Entry>& entries)
{
    std::vector<PolicyInfo> out;
    for (const Entry& e : entries)
        out.push_back({e.name, e.params, e.description});
    return out;
}

} // namespace

PolicyRegistry::PolicyRegistry()
{
    registerBuiltins();
}

PolicyRegistry&
PolicyRegistry::global()
{
    static PolicyRegistry registry;
    return registry;
}

void
PolicyRegistry::registerScheduler(const std::string& name,
                                  const std::string& params,
                                  const std::string& description,
                                  SchedulerFactory factory)
{
    addEntry(schedulers, "scheduler", name, params, description,
             std::move(factory));
}

void
PolicyRegistry::registerDispatcher(const std::string& name,
                                   const std::string& params,
                                   const std::string& description,
                                   DispatcherFactory factory)
{
    addEntry(dispatchers, "dispatcher", name, params, description,
             std::move(factory));
}

void
PolicyRegistry::registerEstimator(const std::string& name,
                                  const std::string& params,
                                  const std::string& description,
                                  EstimatorFactory factory)
{
    addEntry(estimators, "estimator", name, params, description,
             std::move(factory));
}

void
PolicyRegistry::registerArrival(const std::string& name,
                                const std::string& params,
                                const std::string& description,
                                ArrivalFactory factory)
{
    addEntry(arrivals, "arrival process", name, params, description,
             std::move(factory));
}

void
PolicyRegistry::registerFailureProcess(const std::string& name,
                                       const std::string& params,
                                       const std::string& description,
                                       FailureFactory factory)
{
    addEntry(failures, "failure process", name, params, description,
             std::move(factory));
}

void
PolicyRegistry::registerArrivalProcess(const std::string& name,
                                       const std::string& params,
                                       const std::string& description,
                                       ArrivalProcessFactory factory)
{
    registerArrival(
        name, params, description,
        [name, factory](PolicyParams& parse_params) {
            // Probe-construct at a nominal rate so the factory
            // consumes (and thereby validates) its parameter keys
            // now — makeArrival's unknown-parameter rejection then
            // covers user processes exactly like built-ins.
            auto probe = factory(1.0, parse_params);
            fatalIf(probe == nullptr,
                    "PolicyRegistry: arrival-process factory '" +
                        name + "' returned null");

            // Real construction is deferred until the workload's
            // base rate is known (makeArrivalProcess), possibly many
            // times, so capture the raw spec and rebuild the params
            // view per invocation.
            PolicySpec spec;
            spec.name = parse_params.specName();
            spec.params = parse_params.raw();
            ArrivalConfig cfg;
            cfg.kind = ArrivalKind::Custom;
            cfg.customName = name;
            cfg.customFactory =
                [factory, spec](double rate) {
                    PolicyParams build_params(spec);
                    return factory(rate, build_params);
                };
            return cfg;
        });
}

std::unique_ptr<Scheduler>
PolicyRegistry::makeScheduler(const std::string& spec,
                              const BenchContext& ctx,
                              WorkloadKind kind) const
{
    PolicySpec parsed = parsePolicySpec(spec);
    const auto& entry = requireEntry(schedulers, "scheduler",
                                     parsed.name);
    PolicyParams params(parsed);
    std::unique_ptr<Scheduler> policy =
        entry.factory(ctx, kind, params);
    panicIf(policy == nullptr, "PolicyRegistry: scheduler factory '" +
                                   entry.name + "' returned null");
    rejectUnconsumed("scheduler", entry.name, params);
    return policy;
}

std::unique_ptr<Dispatcher>
PolicyRegistry::makeDispatcher(const std::string& spec,
                               const BenchContext& ctx) const
{
    return makeDispatcher(spec, ctx, WorkStealingConfig{});
}

std::unique_ptr<Dispatcher>
PolicyRegistry::makeDispatcher(
    const std::string& spec, const BenchContext& ctx,
    const WorkStealingConfig& steal_base) const
{
    PolicySpec parsed = parsePolicySpec(spec);
    const auto& entry = requireEntry(dispatchers, "dispatcher",
                                     parsed.name);
    PolicyParams params(parsed);
    DispatcherArgs args{ctx, steal_base};
    std::unique_ptr<Dispatcher> dispatcher = entry.factory(args,
                                                           params);
    panicIf(dispatcher == nullptr,
            "PolicyRegistry: dispatcher factory '" + entry.name +
                "' returned null");
    rejectUnconsumed("dispatcher", entry.name, params);
    return dispatcher;
}

std::unique_ptr<LatencyEstimator>
PolicyRegistry::makeEstimator(const std::string& spec,
                              const BenchContext& ctx) const
{
    PolicySpec parsed = parsePolicySpec(spec);
    const auto& entry = requireEntry(estimators, "estimator",
                                     parsed.name);
    PolicyParams params(parsed);
    std::unique_ptr<LatencyEstimator> est = entry.factory(ctx, params);
    panicIf(est == nullptr, "PolicyRegistry: estimator factory '" +
                                entry.name + "' returned null");
    rejectUnconsumed("estimator", entry.name, params);
    return est;
}

ArrivalConfig
PolicyRegistry::makeArrival(const std::string& spec) const
{
    PolicySpec parsed = parsePolicySpec(spec);
    const auto& entry = requireEntry(arrivals, "arrival process",
                                     parsed.name);
    PolicyParams params(parsed);
    ArrivalConfig cfg = entry.factory(params);
    rejectUnconsumed("arrival process", entry.name, params);
    return cfg;
}

std::unique_ptr<FailureProcess>
PolicyRegistry::makeFailureProcess(const std::string& spec) const
{
    PolicySpec parsed = parsePolicySpec(spec);
    const auto& entry = requireEntry(failures, "failure process",
                                     parsed.name);
    PolicyParams params(parsed);
    std::unique_ptr<FailureProcess> process = entry.factory(params);
    fatalIf(process == nullptr,
            "PolicyRegistry: failure-process factory '" + entry.name +
                "' returned null");
    rejectUnconsumed("failure process", entry.name, params);
    return process;
}

bool
PolicyRegistry::hasScheduler(const std::string& name) const
{
    return findEntry(schedulers, parsePolicySpec(name).name) != nullptr;
}

void
PolicyRegistry::requireScheduler(const std::string& spec) const
{
    requireEntry(schedulers, "scheduler", parsePolicySpec(spec).name);
}

void
PolicyRegistry::requireDispatcher(const std::string& spec) const
{
    requireEntry(dispatchers, "dispatcher",
                 parsePolicySpec(spec).name);
}

void
PolicyRegistry::requireEstimator(const std::string& spec) const
{
    requireEntry(estimators, "estimator", parsePolicySpec(spec).name);
}

std::vector<std::string>
PolicyRegistry::schedulerNames() const
{
    return entryNames(schedulers);
}

std::vector<std::string>
PolicyRegistry::dispatcherNames() const
{
    return entryNames(dispatchers);
}

std::vector<PolicyInfo>
PolicyRegistry::schedulerTable() const
{
    return entryTable(schedulers);
}

std::vector<PolicyInfo>
PolicyRegistry::dispatcherTable() const
{
    return entryTable(dispatchers);
}

std::vector<PolicyInfo>
PolicyRegistry::estimatorTable() const
{
    return entryTable(estimators);
}

std::vector<PolicyInfo>
PolicyRegistry::arrivalTable() const
{
    return entryTable(arrivals);
}

std::vector<PolicyInfo>
PolicyRegistry::failureProcessTable() const
{
    return entryTable(failures);
}

namespace {

/** Dysta scheduler config from tuned defaults + spec overrides. */
DystaConfig
dystaConfigFromParams(WorkloadKind kind, PolicyParams& params,
                      DystaConfig base)
{
    base.eta = params.getDouble("eta", base.eta);
    base.beta = params.getDouble("beta", base.beta);
    base.sparsityAware = params.getBool("sparsity", base.sparsityAware);
    base.dynamicLevel = params.getBool("dynamic", base.dynamicLevel);
    base.slackFloor = params.getDouble("slack_floor", base.slackFloor);
    base.penaltyCap = params.getDouble("penalty_cap", base.penaltyCap);
    base.slackCapFactor =
        params.getDouble("slack_cap", base.slackCapFactor);
    applyPredictorParams(base.predictor, params);
    (void)kind;
    return base;
}

constexpr const char* kDystaParamHelp =
    "eta, beta, sparsity, dynamic, slack_floor, penalty_cap, "
    "slack_cap, predictor, last_n, ema_weight, alpha, gamma_min, "
    "gamma_max";

} // namespace

void
PolicyRegistry::registerBuiltins()
{
    // --- schedulers (the paper's Table 5 column order) ---------------
    registerScheduler(
        "FCFS", "", "first-come first-served, no preemption signal",
        [](const BenchContext&, WorkloadKind, PolicyParams&) {
            return std::make_unique<FcfsScheduler>();
        });
    registerScheduler(
        "SJF", "", "shortest job first from the profiled LUT",
        [](const BenchContext& ctx, WorkloadKind, PolicyParams&) {
            return std::make_unique<SjfScheduler>(ctx.lut);
        });
    registerScheduler(
        "SDRM3", "", "utility scheduler balancing ANTT and fairness",
        [](const BenchContext& ctx, WorkloadKind, PolicyParams&) {
            return std::make_unique<Sdrm3Scheduler>(ctx.lut);
        });
    registerScheduler(
        "PREMA", "", "token-based preemptive multi-DNN scheduler",
        [](const BenchContext& ctx, WorkloadKind, PolicyParams&) {
            return std::make_unique<PremaScheduler>(ctx.lut);
        });
    registerScheduler(
        "Planaria", "", "deadline-aware spatial-multitenancy baseline",
        [](const BenchContext& ctx, WorkloadKind, PolicyParams&) {
            return std::make_unique<PlanariaScheduler>(ctx.lut);
        });
    registerScheduler(
        "Oracle", "eta",
        "Dysta scoring over ground-truth trace remainders",
        [](const BenchContext&, WorkloadKind kind,
           PolicyParams& params) {
            bool cnn = kind == WorkloadKind::MultiCNN;
            double eta = params.getDouble(
                "eta", tunedDystaConfig(cnn).eta);
            return std::make_unique<OracleScheduler>(eta);
        });
    registerScheduler(
        "Dysta", kDystaParamHelp,
        "bi-level sparsity-aware scheduler (the paper's policy)",
        [](const BenchContext& ctx, WorkloadKind kind,
           PolicyParams& params) {
            bool cnn = kind == WorkloadKind::MultiCNN;
            return std::make_unique<DystaScheduler>(
                ctx.lut, dystaConfigFromParams(kind, params,
                                               tunedDystaConfig(cnn)));
        });
    registerScheduler(
        "Dysta-w/o-sparse", kDystaParamHelp,
        "Dysta ablation without sparse latency prediction",
        [](const BenchContext& ctx, WorkloadKind kind,
           PolicyParams& params) {
            return std::make_unique<DystaScheduler>(
                ctx.lut, dystaConfigFromParams(
                             kind, params, dystaWithoutSparseConfig()));
        });
    registerScheduler(
        "Dysta-HW", "eta",
        "FP16 fixed-function hardware implementation of Dysta",
        [](const BenchContext& ctx, WorkloadKind kind,
           PolicyParams& params) {
            bool cnn = kind == WorkloadKind::MultiCNN;
            HwSchedulerConfig hw_cfg;
            hw_cfg.eta = params.getDouble("eta",
                                          tunedDystaConfig(cnn).eta);
            return std::make_unique<DystaHwScheduler>(
                ctx.lut, ctx.models, hw_cfg);
        });

    // --- dispatchers -------------------------------------------------
    registerDispatcher(
        "round-robin", "", "tenant-oblivious rotation",
        [](const DispatcherArgs&, PolicyParams&) {
            return std::make_unique<RoundRobinDispatcher>();
        });
    registerDispatcher(
        "least-outstanding", "",
        "fewest queued-or-running requests",
        [](const DispatcherArgs&, PolicyParams&) {
            return std::make_unique<LeastOutstandingDispatcher>();
        });
    registerDispatcher(
        "least-backlog", kPredictorParamHelp,
        "smallest sparsity-refined estimated backlog",
        [](const DispatcherArgs& args, PolicyParams& params) {
            PredictorConfig pcfg;
            applyPredictorParams(pcfg, params);
            return std::make_unique<LeastBacklogDispatcher>(
                args.ctx.lut, pcfg);
        });
    registerDispatcher(
        "least-backlog-lut", "",
        "least-backlog with the sparsity-blind LUT estimator",
        [](const DispatcherArgs& args, PolicyParams&) {
            return std::make_unique<LeastBacklogDispatcher>(
                args.ctx.lut, PredictorConfig{},
                /*sparsity_aware=*/false);
        });
    registerDispatcher(
        "capability-aware", kPredictorParamHelp,
        "least estimated completion over per-class scaled views",
        [](const DispatcherArgs& args, PolicyParams& params) {
            PredictorConfig pcfg;
            applyPredictorParams(pcfg, params);
            return std::make_unique<CapabilityAwareDispatcher>(
                args.ctx.lut, pcfg);
        });
    registerDispatcher(
        "work-stealing",
        "ratio, min_gap, max_moves, predictor, last_n, ema_weight, "
        "alpha, gamma_min, gamma_max",
        "capability-aware placement plus threshold-triggered "
        "migration",
        [](const DispatcherArgs& args, PolicyParams& params) {
            WorkStealingConfig steal = args.stealBase;
            steal.imbalanceRatio =
                params.getDouble("ratio", steal.imbalanceRatio);
            steal.minImbalanceSec =
                params.getDouble("min_gap", steal.minImbalanceSec);
            steal.maxMovesPerCycle = static_cast<size_t>(params.getInt(
                "max_moves",
                static_cast<int>(steal.maxMovesPerCycle)));
            PredictorConfig pcfg;
            applyPredictorParams(pcfg, params);
            return std::make_unique<WorkStealingDispatcher>(
                args.ctx.lut, steal, pcfg);
        });

    // --- estimators --------------------------------------------------
    registerEstimator(
        "lut", "", "profiled LUT averages, sparsity-blind",
        [](const BenchContext& ctx, PolicyParams&) {
            return std::make_unique<LutEstimator>(ctx.lut);
        });
    registerEstimator(
        "dysta", kPredictorParamHelp,
        "LUT averages refined online by monitored sparsity (Alg. 3)",
        [](const BenchContext& ctx, PolicyParams& params) {
            PredictorConfig pcfg;
            applyPredictorParams(pcfg, params);
            return std::make_unique<DystaEstimator>(ctx.lut, pcfg);
        });
    registerEstimator(
        "oracle", "", "ground-truth trace remainders",
        [](const BenchContext&, PolicyParams&) {
            return std::make_unique<OracleEstimator>();
        });

    // --- arrival processes -------------------------------------------
    registerArrival(
        "poisson", "", "homogeneous Poisson (the paper's scenario)",
        [](PolicyParams&) { return ArrivalConfig{}; });
    registerArrival(
        "mmpp", "burst, base_dwell, burst_dwell",
        "two-state on/off bursty tenant traffic",
        [](PolicyParams& params) {
            ArrivalConfig cfg;
            cfg.kind = ArrivalKind::Mmpp;
            cfg.burstMultiplier =
                params.getDouble("burst", cfg.burstMultiplier);
            cfg.meanBaseDwell =
                params.getDouble("base_dwell", cfg.meanBaseDwell);
            cfg.meanBurstDwell =
                params.getDouble("burst_dwell", cfg.meanBurstDwell);
            return cfg;
        });
    registerArrival(
        "diurnal", "amplitude, period",
        "sinusoidal time-of-day rate curve",
        [](PolicyParams& params) {
            ArrivalConfig cfg;
            cfg.kind = ArrivalKind::Diurnal;
            cfg.amplitude = params.getDouble("amplitude",
                                             cfg.amplitude);
            cfg.period = params.getDouble("period", cfg.period);
            return cfg;
        });

    // --- failure processes (chaos engine) ----------------------------
    registerFailureProcess(
        "mtbf", "up, down, scope, start",
        "alternating-renewal fault injection: each unit cycles "
        "up-dwell -> fail -> down-dwell -> recover; dwells are "
        "exp@M | weibull@S:K | fixed@M, scope is node | domain",
        [](PolicyParams& params) {
            MtbfFailureProcess::Config cfg;
            cfg.up = chaosDistFromSpec(
                params.getString("up", cfg.up.str()));
            cfg.down = chaosDistFromSpec(
                params.getString("down", cfg.down.str()));
            std::string scope = params.getString("scope", "node");
            fatalIf(scope != "node" && scope != "domain",
                    "mtbf: scope must be 'node' or 'domain', got '" +
                        scope + "'");
            cfg.byDomain = scope == "domain";
            cfg.start = params.getDouble("start", cfg.start);
            fatalIf(cfg.start < 0.0, "mtbf: start must be >= 0");
            return std::make_unique<MtbfFailureProcess>(cfg);
        });
}

} // namespace dysta
