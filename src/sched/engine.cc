#include "sched/engine.hh"

#include "util/logging.hh"

namespace dysta {

SimConfig
singleNodeSimConfig(const EngineConfig& cfg)
{
    SimConfig sim;
    NodeProfile profile = referenceNodeProfile("accelerator");
    profile.decisionOverheadSec = cfg.decisionOverheadSec;
    profile.layerBlockSize = cfg.layerBlockSize;
    sim.nodes.push_back(profile);
    return sim;
}

namespace {

/** Both overloads: `input` is a request vector or a source. */
template <typename Input>
SimResult
runOnOneNode(const SimConfig& cfg, Input& input, Scheduler& policy)
{
    if (cfg.nodes.size() != 1)
        fatal("runSingleNode: need a one-node config, got " +
              std::to_string(cfg.nodes.size()) + " nodes");
    policy.reset();

    SingleNodeDispatcher dispatcher;
    PolicyFactory factory = [&policy](const NodeProfile&, int) {
        return std::make_unique<ForwardingScheduler>(policy);
    };
    return runSimulation(cfg, input, dispatcher, factory);
}

} // namespace

SimResult
runSingleNode(const SimConfig& cfg, std::vector<Request>& requests,
              Scheduler& policy)
{
    return runOnOneNode(cfg, requests, policy);
}

SimResult
runSingleNode(const SimConfig& cfg, ArrivalSource& source,
              Scheduler& policy)
{
    return runOnOneNode(cfg, source, policy);
}

} // namespace dysta
