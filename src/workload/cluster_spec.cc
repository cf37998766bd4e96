#include "workload/cluster_spec.hh"

#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "util/logging.hh"

namespace dysta {

namespace {

std::vector<std::string>
splitList(const std::string& spec, char sep)
{
    std::vector<std::string> parts;
    std::stringstream in(spec);
    std::string part;
    while (std::getline(in, part, sep)) {
        if (!part.empty())
            parts.push_back(part);
    }
    return parts;
}

} // namespace

std::vector<std::string>
hwClassNames()
{
    return {"sanger", "sanger-lite", "eyeriss-xl", "eyeriss-v2"};
}

NodeHw
hwClassByName(const std::string& cls)
{
    NodeHw hw;
    hw.hwClass = cls;
    if (cls == "sanger") {
        // The reference: the full-size array the traces replay at 1x.
        hw.peCount = 1024;
        hw.clockHz = 530e6;
        hw.derate = 1.0;
    } else if (cls == "sanger-lite") {
        // Half the reconfigurable array, same clock: 0.5x.
        hw.peCount = 512;
        hw.clockHz = 530e6;
        hw.derate = 1.0;
    } else if (cls == "eyeriss-xl") {
        // A scaled-up row-stationary node (1024 PEs at 400 MHz);
        // the derate absorbs the dataflow's lower effective
        // utilization on this workload mix: ~0.38x.
        hw.peCount = 1024;
        hw.clockHz = 400e6;
        hw.derate = 0.5;
    } else if (cls == "eyeriss-v2") {
        // The paper's small prototype config (16 clusters x 12 PEs
        // at 200 MHz): ~0.07x — a genuinely weak fleet member.
        hw.peCount = 192;
        hw.clockHz = 200e6;
        hw.derate = 1.0;
    } else {
        fatal("hwClassByName: unknown hardware class '" + cls + "'");
    }
    return hw;
}

NodeProfile
nodeOfClass(const std::string& cls, size_t index)
{
    return nodeProfileFromHw(cls + std::to_string(index),
                             hwClassByName(cls));
}

/** Largest fleet a spec may describe. */
constexpr long kMaxFleetNodes = 1 << 16;

std::vector<NodeProfile>
fleetFromSpec(const std::string& spec)
{
    std::vector<NodeProfile> fleet;
    // Per-class index spans the whole spec, so a class appearing in
    // several segments still yields unique node names.
    std::unordered_map<std::string, size_t> next_index;
    for (const std::string& part : splitList(spec, ',')) {
        // Optional correlated-fault-domain suffix: "sanger:2@rack0"
        // puts both nodes in domain "rack0" (see NodeProfile::domain).
        std::string body = part;
        std::string domain;
        size_t at = part.find('@');
        if (at != std::string::npos) {
            domain = part.substr(at + 1);
            fatalIf(domain.empty(),
                    "fleetFromSpec: empty domain in '" + part + "'");
            body = part.substr(0, at);
        }
        // Optional per-node scheduler suffix: "sanger:2=dysta" runs
        // both nodes under the dysta policy regardless of the
        // cluster-wide scheduler (see NodeProfile::scheduler).
        std::string scheduler;
        size_t eq = body.find('=');
        if (eq != std::string::npos) {
            scheduler = body.substr(eq + 1);
            fatalIf(scheduler.empty(),
                    "fleetFromSpec: empty scheduler in '" + part +
                        "'");
            body = body.substr(0, eq);
        }
        size_t colon = body.find(':');
        std::string cls = body.substr(0, colon);
        long count = 1;
        if (colon != std::string::npos) {
            char* end = nullptr;
            count = std::strtol(body.c_str() + colon + 1, &end, 10);
            fatalIf(end == nullptr || *end != '\0' || count <= 0,
                    "fleetFromSpec: malformed count in '" + part +
                        "'");
        }
        // Bound the fleet before building it: an oversized count
        // would otherwise allocate until memory runs out.
        if (count > kMaxFleetNodes - static_cast<long>(fleet.size()))
            fatal("fleetFromSpec: fleet '" + spec + "' has more than " +
                  std::to_string(kMaxFleetNodes) + " nodes");
        for (long i = 0; i < count; ++i) {
            NodeProfile profile =
                nodeOfClass(cls, next_index[cls]++);
            profile.domain = domain;
            profile.scheduler = scheduler;
            fleet.push_back(std::move(profile));
        }
    }
    fatalIf(fleet.empty(),
            "fleetFromSpec: empty fleet spec '" + spec + "'");
    return fleet;
}

std::vector<NodeEvent>
nodeEventsFromSpec(const std::string& spec)
{
    std::vector<NodeEvent> events;
    for (const std::string& part : splitList(spec, ',')) {
        size_t at = part.find('@');
        size_t colon = part.find(':', at == std::string::npos ? 0 : at);
        fatalIf(at == std::string::npos || colon == std::string::npos,
                "nodeEventsFromSpec: malformed event '" + part +
                    "' (want kind@time:node)");
        std::string kind = part.substr(0, at);
        NodeEvent ev;
        if (kind == "drain")
            ev.kind = NodeEventKind::Drain;
        else if (kind == "fail")
            ev.kind = NodeEventKind::Fail;
        else if (kind == "recover")
            ev.kind = NodeEventKind::Recover;
        else
            fatal("nodeEventsFromSpec: unknown event kind '" + kind +
                  "'");

        char* end = nullptr;
        const char* time_str = part.c_str() + at + 1;
        ev.time = std::strtod(time_str, &end);
        fatalIf(end == nullptr || end == time_str || *end != ':' ||
                    ev.time < 0.0,
                "nodeEventsFromSpec: malformed time in '" + part +
                    "'");
        ev.node = static_cast<int>(
            std::strtol(part.c_str() + colon + 1, &end, 10));
        fatalIf(end == nullptr || *end != '\0' || ev.node < 0,
                "nodeEventsFromSpec: malformed node in '" + part +
                    "'");
        events.push_back(ev);
    }
    return events;
}

} // namespace dysta
