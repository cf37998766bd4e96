#include "tracing.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "api/registry.hh"
#include "chaos/failure.hh"
#include "exp/experiments.hh"
#include "obs/telemetry.hh"
#include "sim/core.hh"
#include "util/logging.hh"
#include "workload/source.hh"

namespace perfbench {

using namespace dysta;

namespace {

using Clock = std::chrono::steady_clock;

/** Cost of one clock read, set once by calibrateClock(). */
double g_clockNs = 0.0;

/** Child-span totals of the span currently open on this thread. */
struct Frame
{
    double childNs = 0.0;
    uint64_t children = 0;
};

thread_local Frame* t_open = nullptr;

/**
 * One timed call. Of the two clock reads a span costs, about one
 * lands inside its measured interval and one in the enclosing span's
 * (or the core's) time; both are taken back out here so the parent's
 * self time is not charged for its children's instrumentation.
 */
class Span
{
  public:
    Span(CallStat& call_stat, CellTrace& cell_trace)
        : stat(call_stat), trace(cell_trace), parent(t_open)
    {
        t_open = &frame;
        start = Clock::now();
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    ~Span()
    {
        if (open)
            finish();
    }

    /** Close the span; returns its self time in ns. */
    double
    finish()
    {
        double d = std::chrono::duration<double, std::nano>(
                       Clock::now() - start)
                       .count();
        open = false;
        double self = d - frame.childNs -
                      g_clockNs * static_cast<double>(1 + frame.children);
        ++stat.calls;
        stat.ns += self;
        ++trace.spans;
        if (parent != nullptr) {
            parent->childNs += d;
            ++parent->children;
        } else {
            trace.topInclusiveNs += d + g_clockNs;
        }
        t_open = parent;
        return self;
    }

  private:
    CallStat& stat;
    CellTrace& trace;
    Frame* parent;
    Frame frame;
    Clock::time_point start;
    bool open = true;
};

class TimedSource final : public ArrivalSource
{
  public:
    TimedSource(ArrivalSource& target, CellTrace& cell_trace)
        : inner(target), trace(cell_trace)
    {
    }

    size_t total() const override { return inner.total(); }

    Request*
    next() override
    {
        Span span(trace.workloadNext, trace);
        return inner.next();
    }

    void
    retire(Request* req, double now) override
    {
        Span span(trace.workloadRetire, trace);
        inner.retire(req, now);
    }

  private:
    ArrivalSource& inner;
    CellTrace& trace;
};

class TimedDispatcher final : public Dispatcher
{
  public:
    TimedDispatcher(Dispatcher& target, CellTrace& cell_trace)
        : inner(target), trace(cell_trace)
    {
    }

    std::string name() const override { return inner.name(); }
    void reset() override { inner.reset(); }
    bool wantsRebalance() const override { return inner.wantsRebalance(); }

    size_t
    selectNode(const Request& req,
               const std::vector<std::unique_ptr<SimNode>>& nodes,
               double now) override
    {
        Span span(trace.serveSelect, trace);
        return inner.selectNode(req, nodes, now);
    }

    std::vector<Migration>
    rebalance(const std::vector<std::unique_ptr<SimNode>>& nodes,
              double now) override
    {
        Span span(trace.serveRebalance, trace);
        return inner.rebalance(nodes, now);
    }

    void
    onLayerComplete(const SimNode& node, const Request& req, double now,
                    double monitored_sparsity) override
    {
        Span span(trace.serveHook, trace);
        inner.onLayerComplete(node, req, now, monitored_sparsity);
    }

    void
    onComplete(const SimNode& node, const Request& req,
               double now) override
    {
        Span span(trace.serveHook, trace);
        inner.onComplete(node, req, now);
    }

    void
    onShed(const Request& req, double now) override
    {
        Span span(trace.serveHook, trace);
        inner.onShed(req, now);
    }

    void
    onCancel(const Request& req, double now) override
    {
        Span span(trace.serveHook, trace);
        inner.onCancel(req, now);
    }

  private:
    Dispatcher& inner;
    CellTrace& trace;
};

/**
 * Timed estimator. `hooks` receives the lifecycle calls; a null
 * `hooks` makes a pure query view (like ScaledEstimator) whose owner
 * drives the wrapped estimator's lifecycle itself.
 */
class TimedEstimator final : public LatencyEstimator
{
  public:
    TimedEstimator(const LatencyEstimator& target,
                   LatencyEstimator* lifecycle, CallStat& call_stat,
                   CellTrace& cell_trace)
        : query(target), hooks(lifecycle), stat(call_stat),
          trace(cell_trace)
    {
    }

    /** Owning form: lifecycle and queries both reach `owned`. */
    TimedEstimator(std::unique_ptr<LatencyEstimator> owned_est,
                   CallStat& call_stat, CellTrace& cell_trace)
        : TimedEstimator(*owned_est, owned_est.get(), call_stat,
                         cell_trace)
    {
        owned = std::move(owned_est);
    }

    std::string name() const override { return query.name(); }

    void
    reset() override
    {
        if (hooks == nullptr)
            return;
        Span span(stat, trace);
        hooks->reset();
    }

    void
    admit(const Request& req) override
    {
        if (hooks == nullptr)
            return;
        Span span(stat, trace);
        hooks->admit(req);
    }

    void
    observe(const Request& req, double monitored_sparsity) override
    {
        if (hooks == nullptr)
            return;
        Span span(stat, trace);
        hooks->observe(req, monitored_sparsity);
    }

    void
    release(const Request& req) override
    {
        if (hooks == nullptr)
            return;
        Span span(stat, trace);
        hooks->release(req);
    }

    double
    remaining(const Request& req) const override
    {
        Span span(stat, trace);
        return query.remaining(req);
    }

    double
    isolated(const Request& req) const override
    {
        Span span(stat, trace);
        return query.isolated(req);
    }

  private:
    const LatencyEstimator& query;
    LatencyEstimator* hooks;
    std::unique_ptr<LatencyEstimator> owned;
    CallStat& stat;
    CellTrace& trace;
};

/**
 * Timed scheduler. With `expose_estimator` it presents a timed view
 * of the wrapped policy's estimator through Scheduler::estimator(),
 * which batch composition reads; without it, it hides the estimator
 * exactly as the engine's ForwardingScheduler does.
 */
class TimedScheduler final : public Scheduler
{
  public:
    TimedScheduler(Scheduler& target, bool expose_estimator,
                   CellTrace& cell_trace)
        : Scheduler(estimatorView(target, expose_estimator, cell_trace)),
          inner(target), trace(cell_trace)
    {
    }

    TimedScheduler(std::unique_ptr<Scheduler> owned_policy,
                   bool expose_estimator, CellTrace& cell_trace)
        : TimedScheduler(*owned_policy, expose_estimator, cell_trace)
    {
        owned = std::move(owned_policy);
    }

    std::string name() const override { return inner.name(); }
    void reset() override { inner.reset(); }

    void
    onArrival(const Request& req, double now) override
    {
        Span span(trace.schedHook, trace);
        inner.onArrival(req, now);
    }

    void
    onLayerComplete(const Request& req, double now,
                    double monitored_sparsity) override
    {
        Span span(trace.schedHook, trace);
        inner.onLayerComplete(req, now, monitored_sparsity);
    }

    void
    onComplete(const Request& req, double now) override
    {
        Span span(trace.schedHook, trace);
        inner.onComplete(req, now);
    }

    void
    onDequeue(const Request& req, double now) override
    {
        Span span(trace.schedHook, trace);
        inner.onDequeue(req, now);
    }

    size_t
    selectNext(const std::vector<const Request*>& ready,
               double now) override
    {
        Span span(trace.schedPick, trace);
        return inner.selectNext(ready, now);
    }

    Request*
    pickNext(const std::vector<Request*>& ready, double now) override
    {
        trace.readySum += ready.size();
        trace.readyMax = std::max<uint64_t>(trace.readyMax, ready.size());
        Span span(trace.schedPick, trace);
        Request* pick = inner.pickNext(ready, now);
        trace.pickHistogram.add(span.finish());
        return pick;
    }

  private:
    static std::unique_ptr<LatencyEstimator>
    estimatorView(const Scheduler& target, bool expose,
                  CellTrace& cell_trace)
    {
        const LatencyEstimator* view = target.estimator();
        if (!expose || view == nullptr)
            return nullptr;
        return std::make_unique<TimedEstimator>(
            *view, nullptr, cell_trace.batchEstimate, cell_trace);
    }

    Scheduler& inner;
    std::unique_ptr<Scheduler> owned;
    CellTrace& trace;
};

class TimedFailureProcess final : public FailureProcess
{
  public:
    TimedFailureProcess(FailureProcess& target, CellTrace& cell_trace)
        : inner(target), trace(cell_trace)
    {
    }

    std::string name() const override { return inner.name(); }

    void
    reset(const std::vector<NodeProfile>& nodes, uint64_t seed) override
    {
        Span span(trace.chaos, trace);
        inner.reset(nodes, seed);
    }

    bool
    next(NodeEvent& out) override
    {
        Span span(trace.chaos, trace);
        return inner.next(out);
    }

  private:
    FailureProcess& inner;
    CellTrace& trace;
};

/**
 * The field reset the materialized runSimulation overload applies
 * before wrapping its vector in a MaterializedSource. The traced run
 * wraps that source itself (to time it), so it calls the streaming
 * overload and must start from the same request state.
 */
void
resetForRun(std::vector<Request>& requests)
{
    for (Request& req : requests) {
        req.nextLayer = 0;
        req.executedTime = 0.0;
        req.lastRunEnd = req.arrival;
        req.finishTime = -1.0;
        req.shed = false;
        req.tier = 0;
        req.attempts = 0;
        req.timeoutAt = -1.0;
        req.cancelEpoch = 0;
        req.hedgePeer = nullptr;
        req.isHedgeClone = false;
        req.lastNode = -1;
        req.nodeEnqueueTime = 0.0;
    }
}

/** Mirror of the single-accelerator SchedulerEngine configuration. */
SimConfig
singleNodeConfig(const SweepCell& cell)
{
    EngineConfig ecfg;
    ecfg.layerBlockSize = cell.layerBlockSize;
    NodeProfile profile = referenceNodeProfile("accelerator");
    profile.decisionOverheadSec = ecfg.decisionOverheadSec;
    profile.layerBlockSize = ecfg.layerBlockSize;
    SimConfig sim;
    sim.nodes.push_back(profile);
    sim.recordEvents = ecfg.recordEvents;
    return sim;
}

/** Mirror of runCluster's ClusterConfig -> SimConfig translation. */
SimConfig
clusterConfig(const BenchContext& ctx, const SweepCell& cell)
{
    const ClusterRunConfig& cluster = cell.cluster;
    SimConfig sim;
    if (!cluster.nodes.empty()) {
        sim.nodes = cluster.nodes;
    } else {
        fatalIf(cluster.numNodes == 0,
                "runTracedCell: need at least one node");
        sim.nodes = homogeneousCluster(cluster.numNodes).nodes;
    }
    sim.admission = cluster.admission;
    sim.lut = &ctx.lut;
    sim.nodeEvents = cluster.nodeEvents;
    sim.onFailure = cluster.onFailure;
    sim.chaosSeed = cell.workload.seed;
    sim.retry = retryConfigFromSpec(cluster.retry);
    sim.hedge = hedgeConfigFromSpec(cluster.hedge);
    sim.brownout = brownoutConfigFromSpec(cluster.brownout);
    sim.tierWeights = tierWeightsFromSpec(cluster.tiers);
    sim.batching = batchConfigFromSpec(cluster.batcher);
    return sim;
}

} // namespace

void
NsHistogram::add(double ns)
{
    // ns = m * 2^e with m in [0.5, 1): octave e - 1, and the top three
    // bits of the mantissa pick one of its 8 linear sub-buckets. Cheap
    // on purpose: it runs on every traced pick.
    size_t b = 0;
    if (ns >= 1.0) {
        int e = 0;
        double m = std::frexp(ns, &e);
        b = static_cast<size_t>(e - 1) * 8 +
            static_cast<size_t>((2.0 * m - 1.0) * 8.0);
        b = std::min(b, kBuckets - 1);
    }
    ++counts[b];
    ++total;
}

void
NsHistogram::merge(const NsHistogram& other)
{
    for (size_t b = 0; b < kBuckets; ++b)
        counts[b] += other.counts[b];
    total += other.total;
}

double
NsHistogram::quantile(double q) const
{
    if (total == 0)
        return 0.0;
    auto rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    rank = std::max<uint64_t>(rank, 1);
    uint64_t seen = 0;
    size_t b = 0;
    for (; b + 1 < kBuckets; ++b) {
        seen += counts[b];
        if (seen >= rank)
            break;
    }
    double octave = std::ldexp(1.0, static_cast<int>(b / 8));
    return octave * (1.0 + (static_cast<double>(b % 8) + 0.5) / 8.0);
}

double
CellTrace::clockOverheadNs() const
{
    return 2.0 * g_clockNs * static_cast<double>(spans);
}

void
CellTrace::merge(const CellTrace& other)
{
    workloadNext.merge(other.workloadNext);
    workloadRetire.merge(other.workloadRetire);
    workloadGenerate.merge(other.workloadGenerate);
    serveSelect.merge(other.serveSelect);
    serveHook.merge(other.serveHook);
    serveRebalance.merge(other.serveRebalance);
    admission.merge(other.admission);
    schedPick.merge(other.schedPick);
    schedHook.merge(other.schedHook);
    batchEstimate.merge(other.batchEstimate);
    probe.merge(other.probe);
    chaos.merge(other.chaos);
    pickHistogram.merge(other.pickHistogram);
    readySum += other.readySum;
    readyMax = std::max(readyMax, other.readyMax);
    spans += other.spans;
    topInclusiveNs += other.topInclusiveNs;
    wallNs += other.wallNs;
}

void
calibrateClock()
{
    // The mean, not the median, of an empty span's measured interval:
    // span times are summed, so occasional slow reads belong in it.
    constexpr int kPairs = 200000;
    double sum = 0.0;
    for (int i = 0; i < kPairs; ++i) {
        Clock::time_point start = Clock::now();
        sum += std::chrono::duration<double, std::nano>(Clock::now() -
                                                        start)
                   .count();
    }
    g_clockNs = sum / kPairs;
}

double
clockReadNs()
{
    return g_clockNs;
}

SweepCellResult
runTracedCell(const BenchContext& ctx, const SweepCell& cell,
              CellTrace& trace)
{
    panicIf(cell.telemetry != nullptr || cell.makePolicy != nullptr,
            "runTracedCell: scenario cells carry no sink or policy hook");
    Clock::time_point cell_start = Clock::now();
    const PolicyRegistry& registry = PolicyRegistry::global();

    // Probe sink exactly as runSweepCell builds it, with each probe
    // estimator timed.
    std::unique_ptr<Telemetry> sink;
    if (!cell.probes.empty()) {
        TelemetryConfig tcfg;
        tcfg.recordEvents = false;
        tcfg.recordSeries = false;
        sink = std::make_unique<Telemetry>(tcfg);
        for (const std::string& spec : cell.probes)
            sink->addProbe(spec, std::make_unique<TimedEstimator>(
                                     registry.makeEstimator(spec, ctx),
                                     trace.probe, trace));
    }

    SimConfig sim;
    std::unique_ptr<Dispatcher> dispatcher;
    std::unique_ptr<Scheduler> single_policy;
    std::unique_ptr<FailureProcess> chaos_proc;
    std::unique_ptr<TimedFailureProcess> timed_chaos;
    std::unique_ptr<LatencyEstimator> admission_est;
    std::unique_ptr<TimedEstimator> timed_admission;
    PolicyFactory factory;

    if (cell.clusterMode) {
        const ClusterRunConfig& cluster = cell.cluster;
        trace.policy = cluster.nodeScheduler;
        sim = clusterConfig(ctx, cell);
        if (!cluster.chaos.empty()) {
            chaos_proc = registry.makeFailureProcess(cluster.chaos);
            timed_chaos =
                std::make_unique<TimedFailureProcess>(*chaos_proc, trace);
            sim.chaos = timed_chaos.get();
        }
        // The core's default admission estimator is LutEstimator(*lut);
        // inject that same estimator so it can be timed.
        if (!cluster.admissionEstimator.empty())
            admission_est =
                registry.makeEstimator(cluster.admissionEstimator, ctx);
        else if (cluster.admission.enabled)
            admission_est = std::make_unique<LutEstimator>(ctx.lut);
        if (admission_est) {
            timed_admission = std::make_unique<TimedEstimator>(
                *admission_est, nullptr, trace.admission, trace);
            sim.admissionEstimator = timed_admission.get();
        }
        dispatcher = makeDispatcherByName(cluster.dispatcher, ctx,
                                          cluster.stealing);
        WorkloadKind kind = cell.workload.kind;
        factory = [&ctx, &cluster, &trace, kind](const NodeProfile& profile,
                                                 int) {
            const std::string& spec = profile.scheduler.empty()
                                          ? cluster.nodeScheduler
                                          : profile.scheduler;
            return std::make_unique<TimedScheduler>(
                makeSchedulerByName(spec, ctx, kind), true, trace);
        };
    } else {
        trace.policy = cell.scheduler;
        sim = singleNodeConfig(cell);
        single_policy =
            makeSchedulerByName(cell.scheduler, ctx, cell.workload.kind);
        single_policy->reset();
        dispatcher = std::make_unique<SingleNodeDispatcher>();
        Scheduler& policy = *single_policy;
        factory = [&policy, &trace](const NodeProfile&, int) {
            return std::make_unique<TimedScheduler>(policy, false, trace);
        };
    }
    sim.telemetry = sink.get();
    sim.calendar = cell.calendar;
    sim.metricsKind = cell.metricsKind;
    TimedDispatcher timed_dispatcher(*dispatcher, trace);

    SimResult r;
    if (cell.streaming) {
        std::unique_ptr<WorkloadArrivalSource> source;
        {
            Span span(trace.workloadGenerate, trace);
            source = std::make_unique<WorkloadArrivalSource>(cell.workload,
                                                             ctx.registry);
        }
        TimedSource timed(*source, trace);
        r = runSimulation(sim, timed, timed_dispatcher, factory);
    } else {
        std::vector<Request> requests;
        {
            Span span(trace.workloadGenerate, trace);
            requests = generateWorkload(cell.workload, ctx.registry);
        }
        resetForRun(requests);
        // The vector overload aggregates metrics exactly, whatever
        // metricsKind says; Exact streaming metrics are bit-identical.
        sim.metricsKind = MetricsKind::Exact;
        MaterializedSource source(requests);
        TimedSource timed(source, trace);
        r = runSimulation(sim, timed, timed_dispatcher, factory);
    }

    SweepCellResult out;
    out.metrics = std::move(r.metrics);
    out.decisions = r.decisions;
    out.preemptions = r.preemptions;
    out.eventsProcessed = r.eventsProcessed;
    trace.wallNs += std::chrono::duration<double, std::nano>(
                        Clock::now() - cell_start)
                        .count();
    return out;
}

} // namespace perfbench
