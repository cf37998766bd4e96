/**
 * @file
 * Tests of the declarative experiment API: policy-spec parsing, the
 * PolicyRegistry (construction, parameters, error messages),
 * scenario parse/serialize round-trips, strict rejection of unknown
 * keys and policies, equivalence of registry-constructed and
 * hand-constructed policies, and the shipped scenarios/ directory
 * staying in sync with the built-in specs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "api/registry.hh"
#include "api/report.hh"
#include "api/scenario.hh"
#include "core/dysta.hh"
#include "exp/experiments.hh"
#include "sched/fcfs.hh"
#include "sched/sjf.hh"

using namespace dysta;

namespace {

/** Small shared Phase-1 context (profiled once per process). */
const BenchContext&
smallCtx()
{
    static std::unique_ptr<BenchContext> ctx = [] {
        BenchSetup setup;
        setup.samplesPerModel = 20;
        return makeBenchContext(setup);
    }();
    return *ctx;
}

WorkloadConfig
smallWorkload(WorkloadKind kind = WorkloadKind::MultiAttNN)
{
    WorkloadConfig wl;
    wl.kind = kind;
    wl.arrivalRate = kind == WorkloadKind::MultiAttNN ? 30.0 : 3.0;
    wl.numRequests = 60;
    wl.seed = 11;
    return wl;
}

} // namespace

// --- policy-spec grammar ---------------------------------------------

TEST(PolicySpec, ParsesNameAndParameters)
{
    PolicySpec spec = parsePolicySpec("dysta:eta=0.1,beta=0.25");
    EXPECT_EQ(spec.name, "dysta");
    ASSERT_EQ(spec.params.size(), 2u);
    EXPECT_EQ(spec.params[0].first, "eta");
    EXPECT_EQ(spec.params[0].second, "0.1");
    EXPECT_EQ(spec.params[1].first, "beta");
    EXPECT_EQ(spec.params[1].second, "0.25");
}

TEST(PolicySpec, BareNameHasNoParameters)
{
    PolicySpec spec = parsePolicySpec("work-stealing");
    EXPECT_EQ(spec.name, "work-stealing");
    EXPECT_TRUE(spec.params.empty());
}

TEST(PolicySpec, RejectsMalformedSpecs)
{
    EXPECT_EXIT(parsePolicySpec(""), ::testing::ExitedWithCode(1),
                "empty policy name");
    EXPECT_EXIT(parsePolicySpec("dysta:"),
                ::testing::ExitedWithCode(1), "no parameters");
    EXPECT_EXIT(parsePolicySpec("dysta:eta"),
                ::testing::ExitedWithCode(1), "want key=value");
    EXPECT_EXIT(parsePolicySpec("dysta:eta=1,eta=2"),
                ::testing::ExitedWithCode(1),
                "duplicate parameter 'eta'");
}

// --- registry construction and errors --------------------------------

TEST(PolicyRegistry, UnknownSchedulerErrorListsValidNames)
{
    EXPECT_EXIT(PolicyRegistry::global().makeScheduler("NoSuchPolicy",
                                                       smallCtx()),
                ::testing::ExitedWithCode(1),
                "unknown scheduler 'NoSuchPolicy'.*valid schedulers:"
                ".*FCFS.*Dysta");
}

TEST(PolicyRegistry, DystaRejectsInvertedClampRanges)
{
    // Each would reach std::clamp with hi < lo, which is undefined.
    const PolicyRegistry& reg = PolicyRegistry::global();
    EXPECT_EXIT(reg.makeScheduler("dysta:slack_cap=-1", smallCtx()),
                ::testing::ExitedWithCode(1),
                "slack_floor <= 0 <= slack_cap, got slack_floor 0, "
                "slack_cap -1");
    EXPECT_EXIT(reg.makeScheduler("dysta:slack_floor=0.5", smallCtx()),
                ::testing::ExitedWithCode(1),
                "got slack_floor 0.5, slack_cap 10");
    EXPECT_EXIT(reg.makeScheduler("dysta:gamma_min=2,gamma_max=0.5",
                                  smallCtx()),
                ::testing::ExitedWithCode(1),
                "gamma_min <= gamma_max, got gamma_min 2, gamma_max 0.5");
    EXPECT_EXIT(reg.makeEstimator("dysta:gamma_max=0.1", smallCtx()),
                ::testing::ExitedWithCode(1),
                "got gamma_min 0.25, gamma_max 0.1");
}

TEST(PolicyRegistry, UnknownDispatcherErrorListsValidNames)
{
    EXPECT_EXIT(
        PolicyRegistry::global().makeDispatcher("best-effort",
                                                smallCtx()),
        ::testing::ExitedWithCode(1),
        "unknown dispatcher 'best-effort'.*valid dispatchers:"
        ".*round-robin.*work-stealing");
}

TEST(PolicyRegistry, UnknownParameterErrorListsConsumedKeys)
{
    EXPECT_EXIT(
        PolicyRegistry::global().makeScheduler("dysta:slo_mult=1.2",
                                               smallCtx()),
        ::testing::ExitedWithCode(1),
        "unknown parameter 'slo_mult' for scheduler 'Dysta'.*valid "
        "parameters:.*eta.*beta");
}

TEST(PolicyRegistry, ParameterlessPolicyRejectsAnyParameter)
{
    EXPECT_EXIT(
        PolicyRegistry::global().makeScheduler("FCFS:eta=1",
                                               smallCtx()),
        ::testing::ExitedWithCode(1),
        "unknown parameter 'eta' for scheduler 'FCFS'");
}

TEST(PolicyRegistry, NamesAreCaseInsensitive)
{
    auto a = PolicyRegistry::global().makeScheduler("dysta",
                                                    smallCtx());
    auto b = PolicyRegistry::global().makeScheduler("Dysta",
                                                    smallCtx());
    EXPECT_EQ(a->name(), b->name());
}

TEST(PolicyRegistry, SchedulerParametersReachTheConfig)
{
    auto sched = PolicyRegistry::global().makeScheduler(
        "dysta:eta=0.125,beta=0.75,predictor=ema", smallCtx());
    auto* dysta = dynamic_cast<DystaScheduler*>(sched.get());
    ASSERT_NE(dysta, nullptr);
    EXPECT_DOUBLE_EQ(dysta->config().eta, 0.125);
    EXPECT_DOUBLE_EQ(dysta->config().beta, 0.75);
    EXPECT_EQ(dysta->config().predictor.strategy,
              PredictorStrategy::Ema);
}

TEST(PolicyRegistry, ArrivalSpecsFillTheConfig)
{
    ArrivalConfig mmpp = PolicyRegistry::global().makeArrival(
        "mmpp:burst=8,base_dwell=5,burst_dwell=1");
    EXPECT_EQ(mmpp.kind, ArrivalKind::Mmpp);
    EXPECT_DOUBLE_EQ(mmpp.burstMultiplier, 8.0);
    EXPECT_DOUBLE_EQ(mmpp.meanBaseDwell, 5.0);
    EXPECT_DOUBLE_EQ(mmpp.meanBurstDwell, 1.0);

    EXPECT_EXIT(PolicyRegistry::global().makeArrival("weibull"),
                ::testing::ExitedWithCode(1),
                "unknown arrival process 'weibull'.*poisson.*mmpp"
                ".*diurnal");
}

TEST(PolicyRegistry, EstimatorSpecsConstruct)
{
    auto lut = PolicyRegistry::global().makeEstimator("lut",
                                                      smallCtx());
    EXPECT_EQ(lut->name(), "lut");
    auto dysta = PolicyRegistry::global().makeEstimator(
        "dysta:alpha=0.9", smallCtx());
    EXPECT_EQ(dysta->name(), "dysta");
}

TEST(PolicyRegistry, RegistryMatchesHandConstructionBitExactly)
{
    // A registry-built policy must be indistinguishable from the
    // hand-built equivalent: same workload, same engine, identical
    // metrics field for field.
    const BenchContext& ctx = smallCtx();
    WorkloadConfig wl = smallWorkload();

    auto from_registry =
        PolicyRegistry::global().makeScheduler("SJF", ctx, wl.kind);
    SjfScheduler by_hand(ctx.lut);

    SimResult a = runOne(ctx, wl, *from_registry);
    SimResult b = runOne(ctx, wl, by_hand);
    EXPECT_EQ(metricsDifferences(a.metrics, b.metrics),
              std::vector<std::string>{});
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.preemptions, b.preemptions);

    // Same for a parameterized Dysta vs the tuned hand config.
    DystaConfig cfg = tunedDystaConfig(/*cnn_workload=*/false);
    cfg.eta = 0.125;
    DystaScheduler dysta_hand(ctx.lut, cfg);
    auto dysta_reg = PolicyRegistry::global().makeScheduler(
        "dysta:eta=0.125", ctx, wl.kind);
    SimResult c = runOne(ctx, wl, *dysta_reg);
    SimResult d = runOne(ctx, wl, dysta_hand);
    EXPECT_EQ(metricsDifferences(c.metrics, d.metrics),
              std::vector<std::string>{});
    EXPECT_EQ(c.decisions, d.decisions);
}

TEST(PolicyRegistry, CustomRegistrationIsSpecConstructible)
{
    PolicyRegistry registry; // private registry; global() untouched
    registry.registerScheduler(
        "test-fcfs", "", "registration smoke test",
        [](const BenchContext&, WorkloadKind, PolicyParams&) {
            return std::make_unique<FcfsScheduler>();
        });
    EXPECT_TRUE(registry.hasScheduler("test-fcfs"));
    auto sched = registry.makeScheduler("test-fcfs", smallCtx());
    EXPECT_EQ(sched->name(), "FCFS");

    EXPECT_EXIT(registry.registerScheduler(
                    "TEST-FCFS", "", "case-insensitive duplicate",
                    [](const BenchContext&, WorkloadKind,
                       PolicyParams&) {
                        return std::make_unique<FcfsScheduler>();
                    }),
                ::testing::ExitedWithCode(1),
                "duplicate scheduler 'TEST-FCFS'");
}

TEST(PolicyRegistry, CustomArrivalProcessIsSpecConstructible)
{
    PolicyRegistry registry; // private registry; global() untouched

    // A deterministic drum-beat process: one arrival every 1/rate
    // seconds, optionally scaled by a `slow` parameter.
    class DrumArrivals : public ArrivalProcess
    {
      public:
        explicit DrumArrivals(double beat_gap) : gap(beat_gap) {}
        std::string name() const override { return "drum"; }
        double
        nextArrival(double now, Rng&) override
        {
            return now + gap;
        }

      private:
        double gap;
    };

    registry.registerArrivalProcess(
        "drum", "slow", "deterministic fixed-gap arrivals",
        [](double rate, PolicyParams& params) {
            double slow = params.getDouble("slow", 1.0);
            return std::make_unique<DrumArrivals>(slow / rate);
        });

    ArrivalConfig cfg = registry.makeArrival("drum:slow=2");
    EXPECT_EQ(cfg.kind, ArrivalKind::Custom);
    EXPECT_EQ(cfg.customName, "drum");
    ASSERT_TRUE(static_cast<bool>(cfg.customFactory));

    // The deferred factory rebuilds the process per workload with
    // that workload's base rate.
    auto process = makeArrivalProcess(cfg, 4.0);
    Rng rng(1);
    EXPECT_DOUBLE_EQ(process->nextArrival(0.0, rng), 0.5);
    EXPECT_DOUBLE_EQ(process->nextArrival(0.5, rng), 1.0);

    // Parameters are validated eagerly, at spec-parse time.
    EXPECT_EXIT(registry.makeArrival("drum:slw=2"),
                ::testing::ExitedWithCode(1), "unknown parameter");
}

// --- scenario parsing ------------------------------------------------

TEST(Scenario, ParseSerializeParseIsBitIdentical)
{
    const std::string text =
        "# comment\n"
        "name = roundtrip\n"
        "workload = attnn@30 | cnn@2.5\n"
        "arrival = poisson | mmpp:burst=8\n"
        "slo = 10 | 37.5\n"
        "scheduler = Dysta | dysta:eta=0.1,beta=0.25\n"
        "fleet = sanger:2,eyeriss-xl:1\n"
        "dispatcher = work-stealing:ratio=4\n"
        "requests = 123\n"
        "seeds = 2\n"
        "seed = 99\n"
        "events = fail@1.5:0,recover@4.0:0\n"
        "admission = 1\n"
        "admission_margin = 1.25\n"
        "on_failure = shed\n"
        "samples = 50\n";
    ScenarioSpec once = parseScenario(text);
    std::string canonical = serializeScenario(once);
    ScenarioSpec twice = parseScenario(canonical);
    EXPECT_EQ(canonical, serializeScenario(twice));

    // Spot-check the parsed content survived the round trip.
    EXPECT_EQ(twice.name, "roundtrip");
    ASSERT_EQ(twice.workloads.size(), 2u);
    EXPECT_EQ(twice.workloads[1].kind, WorkloadKind::MultiCNN);
    EXPECT_DOUBLE_EQ(twice.workloads[1].rate, 2.5);
    EXPECT_EQ(twice.arrivals[1], "mmpp:burst=8");
    EXPECT_DOUBLE_EQ(twice.sloMultipliers[1], 37.5);
    EXPECT_EQ(twice.schedulers[1], "dysta:eta=0.1,beta=0.25");
    EXPECT_TRUE(twice.cluster());
    EXPECT_TRUE(twice.admission);
    EXPECT_EQ(twice.onFailure, "shed");
}

TEST(Scenario, EveryKeyRoundTripsAtANonDefaultValue)
{
    // Every key the grammar knows, each away from its ScenarioSpec
    // default, in canonical order: the parse of each value, the print
    // of each field and the key order of --print-spec are all pinned.
    const std::string text =
        "name = every-key\n"
        "workload = attnn@30 | cnn@2.5\n"
        "arrival = poisson | mmpp:burst=8\n"
        "slo = 10 | 37.5\n"
        "scheduler = Dysta | dysta:eta=0.1,beta=0.25\n"
        "fleet = sanger:2,eyeriss-xl:1 | sanger:1\n"
        "dispatcher = round-robin | work-stealing:ratio=4\n"
        "requests = 123\n"
        "seeds = 2\n"
        "seed = 99\n"
        "events = fail@1.5:0,recover@4.0:0\n"
        "admission = 1\n"
        "admission_margin = 1.25 | 2\n"
        "steal_ratio = 1.5 | 4\n"
        "admission_estimator = lut\n"
        "on_failure = shed\n"
        "chaos = none | mtbf:up=exp@20,down=exp@2\n"
        "retry = retry:max=2,backoff=2\n"
        "hedge = hedge:quantile=0.95\n"
        "brownout = brownout:step=0.5\n"
        "tiers = 0.5,0.3,0.2\n"
        "batcher = none | batcher:size=4\n"
        "probes = dysta\n"
        "samples = 50\n"
        "profile_seed = 11\n"
        "cnn_sparsity = 0.25\n"
        "streaming = 1\n"
        "metrics = sketch\n";
    ScenarioSpec spec = parseScenario(text);
    validateScenario(spec);
    const std::string canonical = serializeScenario(spec);
    EXPECT_EQ(canonical, text);
    EXPECT_EQ(serializeScenario(parseScenario(canonical)), canonical);

    // Every key differs from a default spec's, one line per key.
    const std::string defaults = serializeScenario(ScenarioSpec{});
    std::istringstream got(canonical), base(defaults);
    std::string got_line, base_line;
    int lines = 0;
    while (std::getline(got, got_line) && std::getline(base, base_line)) {
        EXPECT_NE(got_line, base_line);
        ++lines;
    }
    EXPECT_EQ(lines, 28);

    bool threw = setFatalThrows(true);
    std::string message;
    try {
        parseScenario("workloads = attnn@30\n");
    } catch (const FatalError& err) {
        message = err.what();
    }
    setFatalThrows(threw);
    EXPECT_EQ(message,
              "parseScenario: unknown key 'workloads'; valid keys: "
              "include, name, workload, arrival, slo, scheduler, fleet, "
              "dispatcher, requests, seeds, seed, events, admission, "
              "admission_margin, steal_ratio, admission_estimator, "
              "on_failure, chaos, retry, hedge, brownout, tiers, "
              "batcher, probes, samples, profile_seed, cnn_sparsity, "
              "streaming, metrics");
}

TEST(Scenario, UnknownKeyIsRejectedNamingValidKeys)
{
    EXPECT_EXIT(parseScenario("workloads = attnn@30\n"),
                ::testing::ExitedWithCode(1),
                "unknown key 'workloads'.*valid keys:.*workload"
                ".*scheduler.*fleet");
}

TEST(Scenario, MalformedLinesAreRejected)
{
    EXPECT_EXIT(parseScenario("just some text\n"),
                ::testing::ExitedWithCode(1),
                "line 1 is not 'key = value'");
    EXPECT_EXIT(
        parseScenario("requests = 10\nrequests = 20\n"),
        ::testing::ExitedWithCode(1), "duplicate key 'requests'");
    EXPECT_EXIT(parseScenario("workload = attnn\n"),
                ::testing::ExitedWithCode(1),
                "malformed workload panel 'attnn'");
    EXPECT_EXIT(parseScenario("workload = hybrid@30\n"),
                ::testing::ExitedWithCode(1),
                "unknown workload kind 'hybrid'.*attnn, cnn");
    EXPECT_EXIT(parseScenario("slo = ten\n"),
                ::testing::ExitedWithCode(1), "expects a number");
    // There is one event calendar; the key that chose it is gone
    // (spaces around '=' are optional).
    EXPECT_EXIT(parseScenario("calendar=bucket\n"),
                ::testing::ExitedWithCode(1), "unknown key 'calendar'");
    // Unchecked, a NaN rate would abort in the event calendar and an
    // infinite one would run to a meaningless report.
    for (std::string rate : {"nan", "inf", "-inf", "0", "-3"}) {
        std::string panel = "attnn@" + rate;
        EXPECT_EXIT(parseScenario("workload = " + panel + "\n"),
                    ::testing::ExitedWithCode(1),
                    "rate must be positive and finite in '" + panel +
                        "'")
            << panel;
    }

    // Values that parse as numbers but that no run can use are caught
    // at validation, naming the value. Unchecked, each of these hung,
    // aborted in the event calendar, died mid-run without naming the
    // key, or wrote a report.
    const std::string fleet = "workload = attnn@30\nscheduler = FCFS\n"
                              "fleet = sanger:2\n"
                              "dispatcher = round-robin\n";
    for (std::string rate : {"nan", "-0.5", "1.5"}) {
        EXPECT_EXIT(validateScenario(parseScenario(
                        fleet + "cnn_sparsity = " + rate + "\n")),
                    ::testing::ExitedWithCode(1),
                    "cnn_sparsity must be in \\[0, 1\\), got " + rate)
            << rate;
    }
    for (std::string line :
         {"arrival = mmpp:base_dwell=nan", "arrival = mmpp:burst=nan",
          "arrival = mmpp:burst=inf", "arrival = diurnal:amplitude=nan",
          "arrival = diurnal:period=nan", "arrival = diurnal:period=inf",
          "batcher = batcher:size=4,overhead=nan",
          "chaos = mtbf:start=nan", "chaos = mtbf:start=-inf"}) {
        std::string value = line.substr(line.rfind('=') + 1);
        EXPECT_EXIT(validateScenario(parseScenario(fleet + line + "\n")),
                    ::testing::ExitedWithCode(1),
                    "expects a number, got '" + value + "'")
            << line;
    }
}

TEST(Scenario, UnknownPolicyIsRejectedAtValidation)
{
    ScenarioSpec spec;
    spec.name = "bad-policy";
    spec.workloads = {workloadPanelFromSpec("attnn@30")};
    spec.schedulers = {"Dysta", "Quantum"};
    EXPECT_EXIT(validateScenario(spec), ::testing::ExitedWithCode(1),
                "unknown scheduler 'Quantum'.*valid schedulers:");
}

TEST(Scenario, ClusterKeysRequireAFleet)
{
    ScenarioSpec spec;
    spec.workloads = {workloadPanelFromSpec("attnn@30")};
    spec.schedulers = {"Dysta"};
    spec.dispatchers = {"round-robin"};
    EXPECT_EXIT(validateScenario(spec), ::testing::ExitedWithCode(1),
                "'dispatcher' requires a 'fleet'");

    spec.dispatchers.clear();
    spec.admission = true;
    EXPECT_EXIT(validateScenario(spec), ::testing::ExitedWithCode(1),
                "'admission' requires a 'fleet'");

    // Any cluster-only key away from its default is rejected by name;
    // set to its default it is accepted.
    const std::string single = "workload = attnn@30\nscheduler = Dysta\n";
    for (std::string line : {"on_failure = shed", "admission_margin = 1.5",
                             "retry = retry:max=2"}) {
        std::string key = line.substr(0, line.find(' '));
        EXPECT_EXIT(validateScenario(parseScenario(single + line + "\n")),
                    ::testing::ExitedWithCode(1),
                    "'" + key + "' requires a 'fleet'")
            << line;
    }
    validateScenario(parseScenario(
        single + "on_failure = restart\nadmission_margin = 1.0\n"));
}

TEST(Scenario, CellExpansionFollowsTheCanonicalOrder)
{
    ScenarioSpec spec;
    spec.workloads = {workloadPanelFromSpec("attnn@30"),
                      workloadPanelFromSpec("cnn@3")};
    spec.sloMultipliers = {10, 50};
    spec.schedulers = {"FCFS", "SJF"};
    spec.requests = 10;
    spec.seeds = 3;

    std::vector<SweepCell> cells = scenarioCells(spec);
    // 2 workloads x 2 slos x 2 schedulers x 3 seeds.
    ASSERT_EQ(cells.size(), 24u);
    // Seeds are innermost and consecutive.
    EXPECT_EQ(cells[0].workload.seed, spec.seed);
    EXPECT_EQ(cells[1].workload.seed, spec.seed + 1);
    EXPECT_EQ(cells[2].workload.seed, spec.seed + 2);
    // Scheduler is the next axis out.
    EXPECT_EQ(cells[0].scheduler, "FCFS");
    EXPECT_EQ(cells[3].scheduler, "SJF");
    // Then slo, then workload.
    EXPECT_DOUBLE_EQ(cells[0].workload.sloMultiplier, 10.0);
    EXPECT_DOUBLE_EQ(cells[6].workload.sloMultiplier, 50.0);
    EXPECT_EQ(cells[0].workload.kind, WorkloadKind::MultiAttNN);
    EXPECT_EQ(cells[12].workload.kind, WorkloadKind::MultiCNN);
}

TEST(Scenario, RunScenarioMatchesManualSweep)
{
    // The declarative path must reproduce a hand-rolled SweepRunner
    // grid bit-exactly (this is the tab05-vs-sdysta acceptance
    // property, shrunk to test size).
    const BenchContext& ctx = smallCtx();

    ScenarioSpec spec;
    spec.name = "equivalence";
    spec.workloads = {workloadPanelFromSpec("attnn@30")};
    spec.schedulers = {"SJF", "Dysta"};
    spec.requests = 50;
    spec.seeds = 2;

    ScenarioRunOptions options;
    options.ctx = &ctx;
    options.jobs = 2;
    ScenarioResult result = runScenario(spec, options);
    ASSERT_EQ(result.rows.size(), 2u);

    for (size_t i = 0; i < result.rows.size(); ++i) {
        SweepCell cell;
        cell.workload = smallWorkload();
        cell.workload.numRequests = 50;
        cell.workload.seed = spec.seed;
        cell.scheduler = spec.schedulers[i];
        cell.probes = spec.probes;
        std::vector<Metrics> runs;
        for (const SweepCell& c : seedReplicas(cell, spec.seeds))
            runs.push_back(runSweepCell(ctx, c).metrics);
        EXPECT_EQ(metricsDifferences(result.rows[i].metrics,
                                     averageMetrics(runs)),
                  std::vector<std::string>{}) << "row " << i;
    }
}

TEST(Scenario, ClusterRunsAreDeterministicAcrossJobs)
{
    const BenchContext& ctx = smallCtx();
    ScenarioSpec spec;
    spec.name = "cluster-determinism";
    spec.workloads = {workloadPanelFromSpec("attnn@60")};
    spec.arrivals = {"mmpp"};
    spec.fleets = {"sanger:1,eyeriss-xl:1"};
    spec.dispatchers = {"round-robin", "work-stealing"};
    spec.schedulers = {"Dysta"};
    spec.requests = 40;

    ScenarioRunOptions serial;
    serial.ctx = &ctx;
    serial.jobs = 1;
    ScenarioRunOptions parallel;
    parallel.ctx = &ctx;
    parallel.jobs = 4;

    ScenarioResult a = runScenario(spec, serial);
    ScenarioResult b = runScenario(spec, parallel);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (size_t i = 0; i < a.rows.size(); ++i)
        EXPECT_EQ(metricsDifferences(a.rows[i].metrics, b.rows[i].metrics),
                  std::vector<std::string>{}) << "row " << i;
}

// --- shipped scenario files ------------------------------------------

TEST(Scenario, BuiltinsAreTheEmbeddedScenarioFiles)
{
    // The built-ins are scenarios/<name>.scn compiled in: the same
    // bytes, the same set of names, the same parsed spec, which
    // round-trips through its canonical form and validates.
    namespace fs = std::filesystem;
    const std::string dir = DYSTA_SCENARIO_DIR;
    ASSERT_TRUE(fs::is_directory(dir)) << dir;

    std::vector<std::string> stems;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".scn")
            stems.push_back(entry.path().stem().string());
    std::vector<std::string> names = builtinScenarioNames();
    std::sort(stems.begin(), stems.end());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, stems);

    for (const std::string& name : builtinScenarioNames()) {
        std::string path = dir + "/" + name + ".scn";
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in) << path;
        std::ostringstream bytes;
        bytes << in.rdbuf();
        EXPECT_EQ(builtinScenarioText(name), bytes.str()) << path;

        std::string canonical = serializeScenario(builtinScenario(name));
        EXPECT_EQ(canonical, serializeScenario(parseScenarioFile(path)))
            << path;
        EXPECT_EQ(canonical, serializeScenario(parseScenario(canonical)))
            << path;
        validateScenario(parseScenarioFile(path));
    }
}

namespace {

const char*
tinyIncludeSet(const std::string& name)
{
    return name == "base.scn" ? "name = base\nrequests = 7\nseeds = 3\n"
                              : nullptr;
}

} // namespace

TEST(Scenario, IncludeResolvesThroughALookup)
{
    ScenarioSpec spec = parseScenario(
        "include = base.scn\nname = child\nseeds = 2\n", "child.scn",
        tinyIncludeSet);
    EXPECT_EQ(spec.name, "child");
    EXPECT_EQ(spec.requests, 7);
    EXPECT_EQ(spec.seeds, 2);

    EXPECT_EXIT(parseScenario("include = missing.scn\n", "child.scn",
                              tinyIncludeSet),
                ::testing::ExitedWithCode(1),
                "cannot open include 'missing.scn'");
    EXPECT_EXIT(parseScenario("include = base.scn\n", "base.scn",
                              tinyIncludeSet),
                ::testing::ExitedWithCode(1),
                "include cycle through 'base.scn'");
}

// --- sweep axes: admission margin and steal ratio --------------------

TEST(Scenario, MarginAndStealAxesParseAndExpand)
{
    ScenarioSpec spec = parseScenario(
        "name = axes\n"
        "workload = attnn@30\n"
        "fleet = sanger:2\n"
        "dispatcher = work-stealing\n"
        "scheduler = FCFS\n"
        "admission = 1\n"
        "admission_margin = 1 | 1.5\n"
        "steal_ratio = 2 | 4\n"
        "requests = 10\n");
    ASSERT_EQ(spec.admissionMargins.size(), 2u);
    EXPECT_DOUBLE_EQ(spec.admissionMargins[1], 1.5);
    ASSERT_EQ(spec.stealRatios.size(), 2u);
    EXPECT_DOUBLE_EQ(spec.stealRatios[0], 2.0);
    validateScenario(spec);

    // 2 margins x 2 steal ratios; steal is the inner axis.
    std::vector<SweepCell> cells = scenarioCells(spec);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_DOUBLE_EQ(cells[0].cluster.admission.margin, 1.0);
    EXPECT_DOUBLE_EQ(cells[0].cluster.stealing.imbalanceRatio, 2.0);
    EXPECT_DOUBLE_EQ(cells[1].cluster.stealing.imbalanceRatio, 4.0);
    EXPECT_DOUBLE_EQ(cells[2].cluster.admission.margin, 1.5);
    EXPECT_DOUBLE_EQ(cells[2].cluster.stealing.imbalanceRatio, 2.0);

    // Round trip keeps both axes.
    ScenarioSpec again = parseScenario(serializeScenario(spec));
    EXPECT_EQ(serializeScenario(again), serializeScenario(spec));
}

TEST(Scenario, AbsentStealAxisKeepsTheDispatcherDefault)
{
    ScenarioSpec spec = parseScenario("name = nosteal\n"
                                      "workload = attnn@30\n"
                                      "fleet = sanger:2\n"
                                      "dispatcher = work-stealing\n"
                                      "scheduler = FCFS\n");
    EXPECT_TRUE(spec.stealRatios.empty());
    std::vector<SweepCell> cells = scenarioCells(spec);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_DOUBLE_EQ(cells[0].cluster.stealing.imbalanceRatio,
                     WorkStealingConfig{}.imbalanceRatio);
}

TEST(Scenario, MarginAndStealAxesAreValidated)
{
    ScenarioSpec spec;
    spec.name = "bad-axes";
    spec.workloads = {workloadPanelFromSpec("attnn@30")};
    spec.schedulers = {"FCFS"};
    spec.fleets = {"sanger:2"};
    spec.dispatchers = {"work-stealing"};

    ScenarioSpec bad = spec;
    bad.admissionMargins = {1.0, -0.5};
    EXPECT_EXIT(validateScenario(bad), ::testing::ExitedWithCode(1),
                "admission margins must be positive");

    bad = spec;
    bad.stealRatios = {0.5};
    EXPECT_EXIT(validateScenario(bad), ::testing::ExitedWithCode(1),
                "steal ratios must be > 1");

    // A scripted event past the end of the fleet is caught before
    // the Phase-1 profile, naming the event, the node and the size.
    bad = spec;
    bad.events = "fail@1.0:5";
    EXPECT_EXIT(validateScenario(bad), ::testing::ExitedWithCode(1),
                "event 'fail@1:5' targets node 5, but fleet "
                "'sanger:2' has 2 nodes");

    // Single-accelerator scenarios have no dispatcher to steal for
    // and no admission front door to sweep.
    bad = spec;
    bad.fleets.clear();
    bad.dispatchers.clear();
    bad.stealRatios = {2.0};
    EXPECT_EXIT(validateScenario(bad), ::testing::ExitedWithCode(1),
                "'steal_ratio' requires a 'fleet'");
    bad.stealRatios.clear();
    bad.admissionMargins = {1.0, 1.5};
    EXPECT_EXIT(validateScenario(bad), ::testing::ExitedWithCode(1),
                "requires a 'fleet'");
}

// --- scenario inheritance (include =) --------------------------------

namespace {

/** Write `text` under the include-test scratch dir. */
std::string
writeScn(const std::string& dir, const std::string& name,
         const std::string& text)
{
    std::filesystem::create_directories(dir);
    std::string path = dir + "/" + name;
    std::ofstream out(path);
    out << text;
    return path;
}

} // namespace

TEST(Scenario, IncludeInheritsAndOverrides)
{
    const std::string dir = "/tmp/dysta_scn_include";
    writeScn(dir, "base.scn",
             "name = base\n"
             "workload = attnn@30\n"
             "fleet = sanger:2\n"
             "scheduler = FCFS | SJF\n"
             "requests = 77\n"
             "seeds = 3\n");
    std::string child_path =
        writeScn(dir, "child.scn",
                 "include = base.scn\n"
                 "name = child\n"
                 "requests = 11\n"
                 "streaming = 1\n"
                 "metrics = sketch\n");

    ScenarioSpec child = parseScenarioFile(child_path);
    // Overridden by the child...
    EXPECT_EQ(child.name, "child");
    EXPECT_EQ(child.requests, 11);
    EXPECT_TRUE(child.streaming);
    EXPECT_EQ(child.metricsKind, MetricsKind::Sketch);
    // ...inherited from the base.
    EXPECT_EQ(child.seeds, 3);
    ASSERT_EQ(child.fleets.size(), 1u);
    EXPECT_EQ(child.fleets[0], "sanger:2");
    ASSERT_EQ(child.schedulers.size(), 2u);

    // Serialization is the flattened form: no include key survives,
    // and re-parsing it without the base file reproduces the spec.
    std::string canonical = serializeScenario(child);
    EXPECT_EQ(canonical.find("include"), std::string::npos);
    EXPECT_EQ(serializeScenario(parseScenario(canonical)),
              canonical);
    std::filesystem::remove_all(dir);
}

TEST(Scenario, IncludeChainsAndDetectsCycles)
{
    const std::string dir = "/tmp/dysta_scn_cycle";
    // a -> b -> c is fine; values merge across the chain.
    writeScn(dir, "c.scn", "workload = attnn@30\nscheduler = FCFS\n"
                           "requests = 5\n");
    writeScn(dir, "b.scn", "include = c.scn\nseeds = 4\n");
    std::string a_path =
        writeScn(dir, "a.scn", "include = b.scn\nname = chained\n");
    ScenarioSpec spec = parseScenarioFile(a_path);
    EXPECT_EQ(spec.name, "chained");
    EXPECT_EQ(spec.requests, 5);
    EXPECT_EQ(spec.seeds, 4);

    // x -> y -> x must die with a cycle error, not recurse forever.
    writeScn(dir, "x.scn", "include = y.scn\n");
    std::string y_path =
        writeScn(dir, "y.scn", "include = x.scn\n");
    EXPECT_EXIT(parseScenarioFile(y_path),
                ::testing::ExitedWithCode(1), "include cycle");
    // A file including itself is the shortest cycle.
    std::string self_path =
        writeScn(dir, "self.scn", "include = self.scn\n");
    EXPECT_EXIT(parseScenarioFile(self_path),
                ::testing::ExitedWithCode(1), "include cycle");
    std::filesystem::remove_all(dir);
}

TEST(Scenario, IncludeMustComeFirstAndExist)
{
    const std::string dir = "/tmp/dysta_scn_order";
    std::string late_path = writeScn(
        dir, "late.scn", "name = late\ninclude = base.scn\n");
    EXPECT_EXIT(parseScenarioFile(late_path),
                ::testing::ExitedWithCode(1),
                "'include' must be the first key");
    std::string missing_path = writeScn(
        dir, "missing.scn", "include = does-not-exist.scn\n");
    EXPECT_EXIT(parseScenarioFile(missing_path),
                ::testing::ExitedWithCode(1),
                "cannot open include");
    std::filesystem::remove_all(dir);
}

// --- reporter --------------------------------------------------------

TEST(Reporter, EmitsWellFormedEscapedJson)
{
    ScenarioResult result;
    result.spec.name = "quote\"and\\backslash";
    result.spec.workloads = {workloadPanelFromSpec("attnn@30")};
    result.spec.schedulers = {"Dysta"};
    ScenarioRow row;
    row.workload = "attnn@30";
    row.arrival = "poisson";
    row.scheduler = "Dysta";
    result.rows.push_back(row);

    Reporter report("test\ttool");
    report.meta("note", "line\nbreak");
    report.scalar("deterministic", true);
    report.scalar("speedup", 2.5);
    report.add(result);

    std::string json = report.json();
    EXPECT_NE(json.find("\"tool\": \"test\\ttool\""),
              std::string::npos);
    EXPECT_NE(json.find("\"note\": \"line\\nbreak\""),
              std::string::npos);
    EXPECT_NE(json.find("quote\\\"and\\\\backslash"),
              std::string::npos);
    EXPECT_NE(json.find("\"deterministic\": true"),
              std::string::npos);
    EXPECT_NE(json.find("\"speedup\": 2.5"), std::string::npos);
    // No raw control characters may survive into the document.
    for (char c : json)
        EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 &&
                     c != '\n')
            << "raw control character in JSON";
}
