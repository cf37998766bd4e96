#include "sched/engine.hh"

namespace dysta {

SimConfig
singleNodeSimConfig(const EngineConfig& cfg)
{
    SimConfig sim;
    NodeProfile profile = referenceNodeProfile("accelerator");
    profile.decisionOverheadSec = cfg.decisionOverheadSec;
    profile.layerBlockSize = cfg.layerBlockSize;
    sim.nodes.push_back(profile);
    sim.recordEvents = cfg.recordEvents;
    return sim;
}

namespace {

/** Both run overloads: `input` is a request vector or a source. */
template <typename Input>
SimResult
runOnOneNode(const EngineConfig& cfg, Input& input, Scheduler& policy)
{
    policy.reset();

    SingleNodeDispatcher dispatcher;
    PolicyFactory factory = [&policy](const NodeProfile&, int) {
        return std::make_unique<ForwardingScheduler>(policy);
    };
    return runSimulation(singleNodeSimConfig(cfg), input, dispatcher,
                         factory);
}

} // namespace

SchedulerEngine::SchedulerEngine(EngineConfig config)
    : cfg(config)
{
}

SimResult
SchedulerEngine::run(std::vector<Request>& requests,
                     Scheduler& policy) const
{
    return runOnOneNode(cfg, requests, policy);
}

SimResult
SchedulerEngine::run(ArrivalSource& source, Scheduler& policy) const
{
    return runOnOneNode(cfg, source, policy);
}

} // namespace dysta
