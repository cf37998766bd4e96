/**
 * @file
 * Chaos-engine bench: stochastic fault injection with and without
 * the resilience stack (deadline retries + hedged dispatch), on the
 * multi-AttNN scenario under bursty (MMPP) arrivals.
 *
 * Three runs at the same chaos intensity and seed: a healthy fleet,
 * chaos with bare restart-on-failure, and chaos with the full
 * retry/hedge stack. The headline is SLO-attained goodput (in-
 * deadline completions per second): the resilient configuration must
 * not regress it versus no-retry at the same fault process, faults
 * must actually bite (availability < 1, retries > 0), and a 1-job vs
 * 4-job repeat of the resilient grid must be bit-identical. Emits
 * BENCH_chaos.json; exits non-zero on any of those regressions.
 */

#include <cstdio>

#include "api/report.hh"
#include "api/scenario.hh"
#include "util/args.hh"
#include "util/logging.hh"

using namespace dysta;

namespace {

const Metrics&
onlyRow(const ScenarioResult& result)
{
    fatalIf(result.rows.size() != 1,
            "bench_chaos: expected exactly one scenario row");
    return result.rows[0].metrics;
}

/** In-deadline completions per second of makespan. */
double
sloGoodput(const Metrics& m)
{
    if (m.makespan <= 0.0)
        return 0.0;
    double attained = static_cast<double>(m.completed) *
                      (1.0 - m.violationRate);
    return attained / m.makespan;
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("bench_chaos",
                   "Stochastic fault injection vs the resilience "
                   "stack (retries + hedging) at matched chaos "
                   "intensity (the built-in 'chaos' scenario).");
    args.addInt("--requests", 600, "requests per workload");
    args.addDouble("--rate", 80.0, "MMPP base arrival rate [req/s]");
    args.addInt("--seed", 42, "workload seed");
    args.addInt("--seeds", 2, "seed replicas to average");
    args.addString("--chaos", "mtbf:up=exp@5,down=exp@1",
                   "fault-process spec both chaos runs share");
    args.addTraceCache();
    args.addString("--out", "BENCH_chaos.json", "report path");
    args.parse(argc, argv);

    // The shipped scenario supplies fleet/admission/stack defaults;
    // the bench pins a single chaos intensity per variant.
    ScenarioSpec resilient = builtinScenario("chaos");
    resilient.requests = args.getInt("--requests");
    resilient.seed = static_cast<uint64_t>(args.getInt("--seed"));
    resilient.seeds = args.getInt("--seeds");
    resilient.workloads = {
        {WorkloadKind::MultiAttNN, args.getDouble("--rate")}};
    resilient.chaos = {args.getString("--chaos")};

    ScenarioSpec noretry = resilient;
    noretry.name = "chaos-noretry";
    noretry.retry = "";
    noretry.hedge = "";

    ScenarioSpec healthy = resilient;
    healthy.name = "chaos-off";
    healthy.chaos = {"none"};

    std::printf("Profiling AttNN models on Sanger...\n");
    auto ctx = makeBenchContext(scenarioSetup(resilient),
                                args.getString("--trace-cache"));

    ScenarioRunOptions options;
    options.jobs = 1;
    options.ctx = ctx.get();

    ScenarioResult off = runScenario(healthy, options);
    ScenarioResult bare = runScenario(noretry, options);
    ScenarioResult full = runScenario(resilient, options);

    // The jobs=1 vs jobs=4 gate of the chaos grid: the parallel
    // sweep must replay the serial fault timelines bit-for-bit.
    ScenarioRunOptions parallel = options;
    parallel.jobs = 4;
    ScenarioResult full_repeat = runScenario(resilient, parallel);

    printScenarioTable(off);
    printScenarioTable(bare);
    printScenarioTable(full);

    const Metrics& m_off = onlyRow(off);
    const Metrics& m_bare = onlyRow(bare);
    const Metrics& m_full = onlyRow(full);

    std::vector<std::string> drift =
        metricsDifferences(m_full, onlyRow(full_repeat));
    for (const std::string& path : drift)
        std::printf("bench_chaos: 1-job vs 4-job differ in %s\n",
                    path.c_str());
    bool deterministic = drift.empty();
    double goodput_bare = sloGoodput(m_bare);
    double goodput_full = sloGoodput(m_full);
    bool faults_bite = m_full.resilience.availability < 1.0 &&
                       m_bare.resilience.availability < 1.0;
    bool retries_fire = m_full.resilience.retries > 0.0;
    // The acceptance gate: retry + hedging must not lose SLO-attained
    // goodput against bare restart-on-failure at the same intensity.
    bool stack_holds = goodput_full >= goodput_bare;

    std::printf(
        "Read: at chaos '%s' (availability %.2f%%, MTTR %.2fs), the "
        "resilience stack lifts SLO-attained goodput %.2f -> %.2f "
        "req/s vs no-retry (%s; healthy fleet: %.2f req/s), with "
        "%.1f retries and a %.0f%% hedge win rate; 1-job vs 4-job "
        "chaos grids are %s.\n",
        args.getString("--chaos").c_str(),
        m_full.resilience.availability * 100.0,
        m_full.resilience.mttr, goodput_bare, goodput_full,
        stack_holds ? "holds" : "REGRESSION", sloGoodput(m_off),
        m_full.resilience.retries,
        m_full.resilience.hedgeWinRate * 100.0,
        deterministic ? "bit-identical" : "NOT reproducible");

    Reporter report("bench_chaos");
    report.meta("chaos", args.getString("--chaos"));
    report.scalar("availability", m_full.resilience.availability);
    report.scalar("mttr_s", m_full.resilience.mttr);
    report.scalar("failures", m_full.resilience.failures);
    report.scalar("timeouts", m_full.resilience.timeouts);
    report.scalar("retries", m_full.resilience.retries);
    report.scalar("retry_amplification",
                  m_full.resilience.retryAmplification);
    report.scalar("hedge_win_rate", m_full.resilience.hedgeWinRate);
    report.scalar("brownout_sheds", m_full.resilience.brownoutSheds);
    report.scalar("goodput_healthy", sloGoodput(m_off));
    report.scalar("goodput_noretry", goodput_bare);
    report.scalar("goodput_resilient", goodput_full);
    report.scalar("goodput_gain",
                  goodput_bare > 0.0
                      ? goodput_full / goodput_bare - 1.0
                      : 0.0);
    report.scalar("stack_holds", stack_holds);
    report.scalar("faults_bite", faults_bite);
    report.scalar("retries_fire", retries_fire);
    report.scalar("deterministic", deterministic);
    report.add(off);
    report.add(bare);
    report.add(full);
    report.writeJson(args.getString("--out"));

    bool ok =
        deterministic && faults_bite && retries_fire && stack_holds;
    if (!ok)
        std::printf("bench_chaos: FAILED (%s%s%s%s)\n",
                    deterministic ? "" : "non-deterministic ",
                    faults_bite ? "" : "no-faults ",
                    retries_fire ? "" : "no-retries ",
                    stack_holds ? "" : "goodput-regression");
    return ok ? 0 : 1;
}
