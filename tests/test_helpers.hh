/**
 * @file
 * Shared helpers for scheduler/engine tests: hand-built traces with
 * exact layer latencies, LUTs derived from them, and the layer
 * slices of a recorded run.
 */

#ifndef DYSTA_TESTS_TEST_HELPERS_HH
#define DYSTA_TESTS_TEST_HELPERS_HH

#include <memory>
#include <string>
#include <vector>

#include "core/model_info.hh"
#include "obs/telemetry.hh"
#include "sched/request.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace dysta::test {

/** Build one trace with the given per-layer latencies/sparsities. */
inline SampleTrace
trace(std::vector<double> latencies, std::vector<double> sparsities)
{
    SampleTrace s;
    for (size_t i = 0; i < latencies.size(); ++i) {
        double sp = i < sparsities.size() ? sparsities[i] : 0.5;
        s.layers.push_back({latencies[i], sp});
    }
    s.finalize();
    return s;
}

/**
 * A synthetic world: named models with fixed per-layer latencies.
 * Each model's trace pool holds a single sample, so the LUT averages
 * equal the ground truth (estimators are exact unless tests add
 * deviating samples).
 */
class World
{
  public:
    /** Register a model with one representative trace. */
    void
    addModel(const std::string& name, std::vector<double> latencies,
             std::vector<double> sparsities = {})
    {
        checkNoKeysTaken();
        auto set = std::make_unique<TraceSet>(
            name, ModelFamily::CNN, SparsityPattern::Dense);
        set->add(trace(std::move(latencies), std::move(sparsities)));
        lut.addFromTrace(*set);
        sets.push_back(std::move(set));
    }

    /** Register a model with several trace samples. */
    void
    addModelSamples(const std::string& name,
                    std::vector<SampleTrace> samples)
    {
        checkNoKeysTaken();
        auto set = std::make_unique<TraceSet>(
            name, ModelFamily::CNN, SparsityPattern::Dense);
        for (auto& s : samples)
            set->add(std::move(s));
        lut.addFromTrace(*set);
        sets.push_back(std::move(set));
    }

    /** Create a request for the model's sample_idx-th trace. */
    Request
    request(int id, const std::string& name, double arrival,
            double slo_mult = 10.0, size_t sample_idx = 0)
    {
        for (const auto& set : sets) {
            if (set->modelName() == name) {
                keysTaken = true;
                return makeRequest(
                    id, lut.key(name, SparsityPattern::Dense),
                    set->sample(sample_idx), arrival, slo_mult,
                    set->avgTotalLatency());
            }
        }
        fatal("test World: unknown model " + name);
    }

    /** Model name of a request built by request(). */
    const std::string&
    name(const Request& req) const
    {
        return lut.lookup(req.model).model;
    }

    ModelInfoLut lut;
    std::vector<std::unique_ptr<TraceSet>> sets;

  private:
    /** Set once a request holds a key; later adds would renumber. */
    bool keysTaken = false;

    void
    checkNoKeysTaken() const
    {
        panicIf(keysTaken, "test World: add every model before the "
                           "first request (a new key renumbers keys)");
    }
};

/**
 * The executed layer slices of a recorded run: its telemetry
 * `LayerComplete` events, in emission order.
 */
inline std::vector<TelemetryEvent>
layerSlices(const Telemetry& telemetry)
{
    std::vector<TelemetryEvent> slices;
    for (const TelemetryEvent& ev : telemetry.events())
        if (ev.kind == TeleKind::LayerComplete)
            slices.push_back(ev);
    return slices;
}

} // namespace dysta::test

#endif // DYSTA_TESTS_TEST_HELPERS_HH
