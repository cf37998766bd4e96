/**
 * @file
 * Pins what every Metrics field turns into: the Reporter's JSON and
 * CSV bytes for a hand-built result, and averageMetrics() over seed
 * replicas, with every expected value written out by hand.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/report.hh"
#include "api/scenario.hh"
#include "exp/sweep.hh"
#include "util/json.hh"

using namespace dysta;

namespace {

/** A row carrying every optional block: probes, tiers, batching. */
ScenarioRow
richRow()
{
    ScenarioRow row;
    row.workload = "attnn@30";
    row.arrival = "mmpp";
    row.slo = 5.0;
    row.fleet = "sanger:2";
    row.dispatcher = "least-backlog";
    row.admissionMargin = 1.25;
    row.stealRatio = 0.5;
    row.chaos = "mtbf:up=exp@5,down=exp@1";
    row.batcher = "batcher:size=8,delay=2ms";
    row.scheduler = "Dysta";
    Metrics& m = row.metrics;
    m.antt = 1.5;
    m.violationRate = 0.125;
    m.sloMissRate = 0.1875;
    m.throughput = 33.25;
    m.goodput = 29.5;
    m.stp = 12.75;
    m.p50Turnaround = 1.1;
    m.p95Turnaround = 2.2;
    m.p99Turnaround = 3.3;
    m.p50Latency = 0.004;
    m.p95Latency = 0.0125;
    m.p99Latency = 1e-7;
    m.completed = 397;
    m.shed = 3;
    m.makespan = 12.0625;
    m.estimators = {{"lut", 40.0, 0.001, 0.002, 8.0, -0.003, 0.004},
                    {"dysta", 41.0, -2.5e-5, 3.5e-4, 9.0, 0.5, 0.75}};
    ResilienceStats& res = m.resilience;
    res.active = true;
    res.availability = 0.96875;
    res.mttr = 1.75;
    res.failures = 4.0;
    res.timeouts = 5.0;
    res.retries = 6.0;
    res.retryAmplification = 1.015;
    res.hedges = 7.0;
    res.hedgeWins = 2.0;
    res.hedgeWinRate = 2.0 / 7.0;
    res.brownoutSheds = 1.0;
    res.tiers = {{200.0, 10.0, 1.0, 15.5}, {197.0, 40.5, 2.0, 14.0}};
    BatchStats& bat = m.batching;
    bat.active = true;
    bat.formed = 120.0;
    bat.joins = 33.0;
    bat.steps = 2400.0;
    bat.meanOccupancy = 3.625;
    bat.meanFillWaitSec = 0.0015;
    bat.stragglerTaxSec = 0.3;
    row.decisions = 812.5;
    row.preemptions = 17.0;
    return row;
}

/** A row with no optional block at all. */
ScenarioRow
plainRow()
{
    ScenarioRow row;
    row.workload = "attnn@30";
    row.arrival = "poisson";
    row.scheduler = "FCFS";
    Metrics& m = row.metrics;
    m.antt = 2.0;
    m.violationRate = 0.25;
    m.sloMissRate = 0.25;
    m.throughput = 30.0;
    m.goodput = 22.5;
    m.stp = 10.0;
    m.p50Turnaround = 1.0;
    m.p95Turnaround = 4.0;
    m.p99Turnaround = 8.0;
    m.p50Latency = 0.01;
    m.p95Latency = 0.02;
    m.p99Latency = 0.03;
    m.completed = 400;
    m.makespan = 13.5;
    row.decisions = 400.0;
    return row;
}

Reporter
pinnedReporter()
{
    ScenarioResult result;
    result.spec.name = "pinned";
    result.rows = {richRow(), plainRow()};
    Reporter report("pin");
    report.meta("jobs", 2);
    report.meta("command", "sdysta pinned");
    report.meta("profile_s", 0.25);
    report.scalar("speedup", 1.5);
    report.scalar("cells", int64_t{12});
    report.scalar("deterministic", true);
    report.scalar("fleet", std::string("sanger:2"));
    report.add(result);
    return report;
}

/**
 * json() of pinnedReporter() around the serialized spec, which the
 * scenario tests pin.
 */
const char* const kPinnedJsonHead = R"({
  "tool": "pin",
  "meta": {
    "jobs": 2,
    "command": "sdysta pinned",
    "profile_s": 0.25
  },
  "speedup": 1.5,
  "cells": 12,
  "deterministic": true,
  "fleet": "sanger:2",
  "scenarios": [
    {
      "name": "pinned",
      "spec": ")";

const char* const kPinnedJsonTail = R"(",
      "rows": [
        {
          "workload": "attnn@30",
          "arrival": "mmpp",
          "slo": 5,
          "fleet": "sanger:2",
          "dispatcher": "least-backlog",
          "admission_margin": 1.25,
          "steal_ratio": 0.5,
          "chaos": "mtbf:up=exp@5,down=exp@1",
          "batcher": "batcher:size=8,delay=2ms",
          "scheduler": "Dysta",
          "antt": 1.5,
          "violation_rate": 0.125,
          "slo_miss_rate": 0.1875,
          "throughput": 33.25,
          "goodput": 29.5,
          "stp": 12.75,
          "p50_turnaround": 1.1,
          "p95_turnaround": 2.2,
          "p99_turnaround": 3.3,
          "p50_latency": 0.004,
          "p95_latency": 0.0125,
          "p99_latency": 1e-07,
          "completed": 397,
          "shed": 3,
          "makespan": 12.0625,
          "decisions": 812.5,
          "preemptions": 17,
          "estimators": [
            {
              "estimator": "lut",
              "samples": 40,
              "bias": 0.001,
              "rmse": 0.002,
              "isolated_samples": 8,
              "isolated_bias": -0.003,
              "isolated_rmse": 0.004
            },
            {
              "estimator": "dysta",
              "samples": 41,
              "bias": -2.5e-05,
              "rmse": 0.00035,
              "isolated_samples": 9,
              "isolated_bias": 0.5,
              "isolated_rmse": 0.75
            }
          ],
          "resilience": {
            "availability": 0.96875,
            "mttr": 1.75,
            "failures": 4,
            "timeouts": 5,
            "retries": 6,
            "retry_amplification": 1.015,
            "hedges": 7,
            "hedge_wins": 2,
            "hedge_win_rate": 0.2857142857142857,
            "brownout_sheds": 1,
            "tiers": [
              {
                "completed": 200,
                "violations": 10,
                "shed": 1,
                "goodput": 15.5
              },
              {
                "completed": 197,
                "violations": 40.5,
                "shed": 2,
                "goodput": 14
              }
            ]
          },
          "batching": {
            "formed": 120,
            "joins": 33,
            "steps": 2400,
            "mean_occupancy": 3.625,
            "mean_fill_wait": 0.0015,
            "straggler_tax": 0.3
          }
        },
        {
          "workload": "attnn@30",
          "arrival": "poisson",
          "slo": 10,
          "fleet": "",
          "dispatcher": "",
          "admission_margin": 1,
          "steal_ratio": -1,
          "scheduler": "FCFS",
          "antt": 2,
          "violation_rate": 0.25,
          "slo_miss_rate": 0.25,
          "throughput": 30,
          "goodput": 22.5,
          "stp": 10,
          "p50_turnaround": 1,
          "p95_turnaround": 4,
          "p99_turnaround": 8,
          "p50_latency": 0.01,
          "p95_latency": 0.02,
          "p99_latency": 0.03,
          "completed": 400,
          "shed": 0,
          "makespan": 13.5,
          "decisions": 400,
          "preemptions": 0
        }
      ]
    }
  ]
})";

/** writeCsv() of pinnedReporter(). */
const char* const kPinnedCsv =
    "scenario,workload,arrival,slo,fleet,dispatcher,"
    "admission_margin,steal_ratio,chaos,batcher,scheduler,antt,"
    "violation_rate,slo_miss_rate,throughput,goodput,stp,"
    "p50_turnaround,p95_turnaround,p99_turnaround,p50_latency,"
    "p95_latency,p99_latency,completed,shed,makespan,decisions,"
    "preemptions,availability,mttr,failures,timeouts,retries,"
    "retry_amplification,hedges,hedge_wins,hedge_win_rate,"
    "brownout_sheds,batch_formed,batch_joins,batch_steps,"
    "batch_occupancy,batch_fill_wait,batch_straggler_tax,"
    "est_lut_bias,est_lut_rmse,est_dysta_bias,est_dysta_rmse\n"
    "pinned,attnn@30,mmpp,5,sanger:2,least-backlog,1.25,0.5,"
    "\"mtbf:up=exp@5,down=exp@1\",\"batcher:size=8,delay=2ms\",Dysta,"
    "1.5,0.125,0.1875,33.25,29.5,12.75,1.1,2.2,3.3,0.004,0.0125,"
    "1e-07,397,3,12.0625,812.5,17,0.96875,1.75,4,5,6,1.015,7,2,"
    "0.2857142857142857,1,120,33,2400,3.625,0.0015,0.3,0.001,0.002,"
    "-2.5e-05,0.00035\n"
    "pinned,attnn@30,poisson,10,,,1,-1,,,FCFS,2,0.25,0.25,30,22.5,"
    "10,1,4,8,0.01,0.02,0.03,400,0,13.5,400,0,,,,,,,,,,,,,,,,,,,,\n";

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace

TEST(ReporterBytes, JsonIsPinned)
{
    ScenarioSpec spec;
    spec.name = "pinned";
    EXPECT_EQ(pinnedReporter().json(),
              kPinnedJsonHead + jsonEscape(serializeScenario(spec)) +
                  kPinnedJsonTail);
}

TEST(ReporterBytes, CsvIsPinned)
{
    std::string path = ::testing::TempDir() + "pinned_report.csv";
    pinnedReporter().writeCsv(path);
    EXPECT_EQ(readFile(path), kPinnedCsv);
    std::remove(path.c_str());
}

TEST(AverageMetrics, EveryFieldAveragesAsWrittenOut)
{
    // Two replicas; every double field gets its own pair of values,
    // so a field read from the wrong member shows. All sums and
    // quotients below are exact in binary64.
    Metrics a;
    a.antt = 1.5;
    a.violationRate = 0.25;
    a.sloMissRate = 0.375;
    a.throughput = 10.0;
    a.goodput = 8.0;
    a.stp = 20.0;
    a.p50Turnaround = 1.25;
    a.p95Turnaround = 3.0;
    a.p99Turnaround = 5.0;
    a.p50Latency = 0.5;
    a.p95Latency = 0.75;
    a.p99Latency = 1.0;
    a.completed = 10;
    a.shed = 3;
    a.makespan = 40.0;
    // Pooled by sample weight: samples 1 + 2, isolated 1 + 3.
    a.estimators = {{"lut", 1.0, 3.0, 5.0, 1.0, 6.0, 11.0},
                    {"dysta", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0}};
    a.resilience.active = true;
    a.resilience.availability = 0.5;
    a.resilience.mttr = 2.0;
    a.resilience.failures = 3.0;
    a.resilience.timeouts = 4.0;
    a.resilience.retries = 6.0;
    a.resilience.retryAmplification = 1.25;
    a.resilience.hedges = 8.0;
    a.resilience.hedgeWins = 2.0;
    a.resilience.hedgeWinRate = 0.25;
    a.resilience.brownoutSheds = 1.0;
    a.resilience.tiers = {{6.0, 1.0, 2.0, 3.0}, {4.0, 2.0, 1.0, 0.5}};
    a.batching.active = true;
    a.batching.formed = 30.0;
    a.batching.joins = 5.0;
    a.batching.steps = 100.0;
    a.batching.meanOccupancy = 2.5;
    a.batching.meanFillWaitSec = 0.125;
    a.batching.stragglerTaxSec = 0.5;

    Metrics b;
    b.antt = 2.5;
    b.violationRate = 0.5;
    b.sloMissRate = 0.625;
    b.throughput = 14.0;
    b.goodput = 9.0;
    b.stp = 24.0;
    b.p50Turnaround = 1.75;
    b.p95Turnaround = 4.0;
    b.p99Turnaround = 9.0;
    b.p50Latency = 1.5;
    b.p95Latency = 2.25;
    b.p99Latency = 4.0;
    b.completed = 11;
    b.shed = 4;
    b.makespan = 44.0;
    b.estimators = {{"lut", 2.0, -3.0, 1.0, 3.0, -1.0, 5.0},
                    {"dysta", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0}};
    b.resilience.active = true;
    b.resilience.availability = 0.75;
    b.resilience.mttr = 3.0;
    b.resilience.failures = 5.0;
    b.resilience.timeouts = 8.0;
    b.resilience.retries = 10.0;
    b.resilience.retryAmplification = 1.75;
    b.resilience.hedges = 12.0;
    b.resilience.hedgeWins = 6.0;
    b.resilience.hedgeWinRate = 0.5;
    b.resilience.brownoutSheds = 3.0;
    b.resilience.tiers = {{8.0, 3.0, 4.0, 5.0}, {2.0, 0.0, 3.0, 1.5}};
    b.batching.active = true;
    b.batching.formed = 34.0;
    b.batching.joins = 9.0;
    b.batching.steps = 120.0;
    b.batching.meanOccupancy = 3.5;
    b.batching.meanFillWaitSec = 0.375;
    b.batching.stragglerTaxSec = 1.5;

    Metrics avg = averageMetrics({a, b});
    EXPECT_EQ(avg.antt, 2.0);
    EXPECT_EQ(avg.violationRate, 0.375);
    EXPECT_EQ(avg.sloMissRate, 0.5);
    EXPECT_EQ(avg.throughput, 12.0);
    EXPECT_EQ(avg.goodput, 8.5);
    EXPECT_EQ(avg.stp, 22.0);
    EXPECT_EQ(avg.p50Turnaround, 1.5);
    EXPECT_EQ(avg.p95Turnaround, 3.5);
    EXPECT_EQ(avg.p99Turnaround, 7.0);
    EXPECT_EQ(avg.p50Latency, 1.0);
    EXPECT_EQ(avg.p95Latency, 1.5);
    EXPECT_EQ(avg.p99Latency, 2.5);
    // 21 / 2 and 7 / 2 truncate.
    EXPECT_EQ(avg.completed, 10u);
    EXPECT_EQ(avg.shed, 3u);
    EXPECT_EQ(avg.makespan, 42.0);

    ASSERT_EQ(avg.estimators.size(), 2u);
    const EstimatorAccuracy& lut = avg.estimators[0];
    EXPECT_EQ(lut.estimator, "lut");
    EXPECT_EQ(lut.samples, 3.0);
    EXPECT_EQ(lut.bias, -1.0);        // (3 * 1 - 3 * 2) / 3
    EXPECT_EQ(lut.rmse, 3.0);         // sqrt((25 * 1 + 1 * 2) / 3)
    EXPECT_EQ(lut.isolatedSamples, 4.0);
    EXPECT_EQ(lut.isolatedBias, 0.75); // (6 * 1 - 1 * 3) / 4
    EXPECT_EQ(lut.isolatedRmse, 7.0);  // sqrt((121 * 1 + 25 * 3) / 4)
    // A probe without samples pools to zeros, not NaN.
    const EstimatorAccuracy& dysta = avg.estimators[1];
    EXPECT_EQ(dysta.estimator, "dysta");
    EXPECT_EQ(dysta.samples, 0.0);
    EXPECT_EQ(dysta.bias, 0.0);
    EXPECT_EQ(dysta.rmse, 0.0);
    EXPECT_EQ(dysta.isolatedSamples, 0.0);
    EXPECT_EQ(dysta.isolatedBias, 0.0);
    EXPECT_EQ(dysta.isolatedRmse, 0.0);

    const ResilienceStats& res = avg.resilience;
    EXPECT_TRUE(res.active);
    EXPECT_EQ(res.availability, 0.625);
    EXPECT_EQ(res.mttr, 2.5);
    EXPECT_EQ(res.failures, 4.0);
    EXPECT_EQ(res.timeouts, 6.0);
    EXPECT_EQ(res.retries, 8.0);
    EXPECT_EQ(res.retryAmplification, 1.5);
    EXPECT_EQ(res.hedges, 10.0);
    EXPECT_EQ(res.hedgeWins, 4.0);
    EXPECT_EQ(res.hedgeWinRate, 0.375);
    EXPECT_EQ(res.brownoutSheds, 2.0);
    ASSERT_EQ(res.tiers.size(), 2u);
    EXPECT_EQ(res.tiers[0].completed, 7.0);
    EXPECT_EQ(res.tiers[0].violations, 2.0);
    EXPECT_EQ(res.tiers[0].shed, 3.0);
    EXPECT_EQ(res.tiers[0].goodput, 4.0);
    EXPECT_EQ(res.tiers[1].completed, 3.0);
    EXPECT_EQ(res.tiers[1].violations, 1.0);
    EXPECT_EQ(res.tiers[1].shed, 2.0);
    EXPECT_EQ(res.tiers[1].goodput, 1.0);

    const BatchStats& bat = avg.batching;
    EXPECT_TRUE(bat.active);
    EXPECT_EQ(bat.formed, 32.0);
    EXPECT_EQ(bat.joins, 7.0);
    EXPECT_EQ(bat.steps, 110.0);
    EXPECT_EQ(bat.meanOccupancy, 3.0);
    EXPECT_EQ(bat.meanFillWaitSec, 0.25);
    EXPECT_EQ(bat.stragglerTaxSec, 1.0);
}

TEST(AverageMetrics, InactiveBlocksKeepTheirDefaults)
{
    // Replicas without probes, chaos or batching average to a row
    // that reports none of them; the resilience defaults of 1 stay.
    Metrics a;
    a.antt = 1.0;
    a.completed = 5;
    Metrics b;
    b.antt = 3.0;
    b.completed = 6;
    Metrics avg = averageMetrics({a, b, b});
    EXPECT_EQ(avg.antt, 7.0 / 3.0);
    EXPECT_EQ(avg.completed, 5u); // 17 / 3 truncates
    EXPECT_TRUE(avg.estimators.empty());
    EXPECT_FALSE(avg.resilience.active);
    EXPECT_EQ(avg.resilience.availability, 1.0);
    EXPECT_EQ(avg.resilience.retryAmplification, 1.0);
    EXPECT_TRUE(avg.resilience.tiers.empty());
    EXPECT_FALSE(avg.batching.active);
    EXPECT_EQ(avg.batching.meanOccupancy, 0.0);
}
