/**
 * @file
 * Heterogeneous cluster specifications for workload configuration.
 *
 * A serving scenario is not just a request stream: it names the
 * fleet it runs on (which accelerator classes, how many of each) and
 * the availability timeline (maintenance drains, failures,
 * recoveries). This file provides the named hardware classes and the
 * compact string specs bench binaries expose as flags:
 *
 *   fleet spec:  "sanger:2,eyeriss-xl:2"
 *   event spec:  "fail@1.5:0,recover@4.0:0,drain@2.0:1"
 *
 * Class speed factors are relative throughput against the full-size
 * Sanger array the Phase-1 traces were profiled on (see NodeHw);
 * the Eyeriss-class entries model row-stationary CNN accelerators
 * pressed into the same fleet, with the derate absorbing the
 * cross-architecture efficiency gap.
 */

#ifndef DYSTA_WORKLOAD_CLUSTER_SPEC_HH
#define DYSTA_WORKLOAD_CLUSTER_SPEC_HH

#include <string>
#include <vector>

#include "sim/core.hh"
#include "sim/node.hh"

namespace dysta {

/** Names of all registered hardware classes. */
std::vector<std::string> hwClassNames();

/**
 * Hardware configuration of a named class: "sanger" (the full-size
 * reference, speed 1.0), "sanger-lite" (half the array, 0.5),
 * "eyeriss-xl" (a scaled-up Eyeriss-class node, ~0.38) or
 * "eyeriss-v2" (the paper's small prototype, ~0.07).
 * fatal() on unknown names.
 */
NodeHw hwClassByName(const std::string& cls);

/**
 * One node of the given class; the profile name is
 * "<cls><index>" and the speed factor derives from the class hw.
 */
NodeProfile nodeOfClass(const std::string& cls, size_t index);

/**
 * Parse a fleet spec "cls[:count][@domain][,...]" into node
 * profiles, in spec order ("sanger:2,eyeriss-xl:1" yields sanger0,
 * sanger1, eyeriss-xl0). A bare class name means count 1. The
 * optional "@domain" suffix assigns every node of the segment to a
 * correlated fault domain ("sanger:2@rack0,sanger:2@rack1"): a
 * domain-scoped FailureProcess takes all members down together.
 * fatal() on malformed specs, unknown classes, zero total nodes or
 * more than 65536.
 */
std::vector<NodeProfile> fleetFromSpec(const std::string& spec);

/**
 * Parse an availability-timeline spec
 * "kind@time:node[,kind@time:node...]" with kind in
 * {drain, fail, recover} into node events ("fail@1.5:0" fails node 0
 * at t=1.5s). Node indices are validated by the simulation against
 * the actual fleet. fatal() on malformed specs.
 */
std::vector<NodeEvent> nodeEventsFromSpec(const std::string& spec);

} // namespace dysta

#endif // DYSTA_WORKLOAD_CLUSTER_SPEC_HH
