/**
 * @file
 * google-benchmark microbenchmarks for the scheduler hot paths:
 * per-decision cost of each policy at a representative queue depth,
 * the sparse latency predictor update, the LUT estimate admission
 * control takes for every queued request, FP16 conversion, and the
 * reconfigurable compute unit. These bound the software-side cost
 * that the dedicated hardware scheduler (Sec. 5) eliminates.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "core/latency_predictor.hh"
#include "exp/experiments.hh"
#include "hw/compute_unit.hh"
#include "util/fp16.hh"

using namespace dysta;

namespace {

/** Shared context: profiled traces plus a ready queue snapshot. */
struct MicroContext
{
    std::unique_ptr<BenchContext> ctx;
    std::vector<Request> requests;
    std::vector<const Request*> ready;

    MicroContext()
    {
        BenchSetup setup;
        setup.samplesPerModel = 60;
        ctx = makeBenchContext(setup);

        WorkloadConfig wl;
        wl.kind = WorkloadKind::MultiAttNN;
        wl.arrivalRate = 30.0;
        wl.numRequests = 64;
        requests = generateWorkload(wl, ctx->registry);
        for (size_t i = 0; i < requests.size(); ++i) {
            Request& req = requests[i];
            req.slot = static_cast<int>(i); // as the sim core assigns
            req.lastRunEnd = req.arrival;
            ready.push_back(&req);
        }
    }
};

MicroContext&
microContext()
{
    static MicroContext instance;
    return instance;
}

void
BM_SchedulerDecision(benchmark::State& state,
                     const std::string& policy_name)
{
    MicroContext& mc = microContext();
    auto policy = makeSchedulerByName(policy_name, *mc.ctx,
                                      WorkloadKind::MultiAttNN);
    policy->reset();
    double now = 0.0;
    for (const auto& req : mc.requests) {
        now = req.arrival;
        policy->onArrival(req, now);
    }
    size_t queue = state.range(0);
    std::vector<const Request*> ready(mc.ready.begin(),
                                      mc.ready.begin() + queue);
    for (auto _ : state) {
        benchmark::DoNotOptimize(policy->selectNext(ready, now));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * queue));
}

void
BM_PredictorObserve(benchmark::State& state)
{
    MicroContext& mc = microContext();
    ModelKey bert = mc.ctx->lut.key("bert", SparsityPattern::Dense);
    const ModelInfo& info = mc.ctx->lut.lookup(bert);
    PredictorConfig cfg;
    SparseLatencyPredictor predictor(info, cfg);
    size_t layer = 1; // attention score stage (monitored)
    for (auto _ : state) {
        predictor.reset();
        predictor.observe(layer, 0.7);
        benchmark::DoNotOptimize(predictor.predictRemaining(2));
    }
}

void
BM_LutEstimatorRemaining(benchmark::State& state)
{
    // Admission control's path: its LutEstimator never admits a
    // request, so every query on a queued request is untracked.
    MicroContext& mc = microContext();
    LutEstimator lut_est(mc.ctx->lut);
    const LatencyEstimator& est = lut_est;
    for (auto _ : state) {
        double sum = 0.0;
        for (const Request* req : mc.ready)
            sum += est.remaining(*req);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * mc.ready.size()));
}

void
BM_Fp16RoundTrip(benchmark::State& state)
{
    float x = 1.2345f;
    for (auto _ : state) {
        Fp16 h(x);
        benchmark::DoNotOptimize(x = h.toFloat() * 1.0001f);
    }
}

void
BM_Fp16RoundToHalf(benchmark::State& state)
{
    float x = 1.2345f;
    for (auto _ : state)
        benchmark::DoNotOptimize(x = roundToHalf(x) * 1.0001f);
}

void
BM_ComputeUnitScore(benchmark::State& state)
{
    ComputeUnit cu(HwPrecision::FP16);
    for (auto _ : state) {
        CuResult r = cu.score(1.1, 0.02, 0.15, 0.01, 40.0, 0.125,
                              0.05, 0.0, 0.2, 2.0);
        benchmark::DoNotOptimize(r.value);
    }
}

} // namespace

BENCHMARK_CAPTURE(BM_SchedulerDecision, fcfs, std::string("FCFS"))
    ->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_SchedulerDecision, sjf, std::string("SJF"))
    ->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_SchedulerDecision, prema, std::string("PREMA"))
    ->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_SchedulerDecision, planaria,
                  std::string("Planaria"))
    ->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_SchedulerDecision, sdrm3, std::string("SDRM3"))
    ->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_SchedulerDecision, dysta, std::string("Dysta"))
    ->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_SchedulerDecision, dysta_hw, std::string("Dysta-HW"))
    ->Arg(8)->Arg(64);
BENCHMARK(BM_PredictorObserve);
BENCHMARK(BM_LutEstimatorRemaining);
BENCHMARK(BM_Fp16RoundTrip);
BENCHMARK(BM_Fp16RoundToHalf);
BENCHMARK(BM_ComputeUnitScore);

BENCHMARK_MAIN();
