#include "workload/workload.hh"

#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/source.hh"

namespace dysta {

std::string
toString(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::MultiAttNN: return "multi-AttNN";
      case WorkloadKind::MultiCNN: return "multi-CNN";
    }
    panic("toString: unknown WorkloadKind");
}

void
TraceRegistry::add(TraceSet traces)
{
    std::string key = traces.key();
    sets.put(key, std::make_unique<TraceSet>(std::move(traces)));
}

bool
TraceRegistry::contains(const std::string& model,
                        SparsityPattern pattern) const
{
    return sets.find(TraceSet::makeKey(model, pattern)).has_value();
}

ModelKey
TraceRegistry::key(const std::string& model, SparsityPattern pattern) const
{
    std::string name = TraceSet::makeKey(model, pattern);
    std::optional<ModelKey> k = sets.find(name);
    if (!k) {
        // Name both the missing key and the registered ones — the
        // usual cause is a scenario whose model mix was excluded
        // from the Phase-1 profile (includeCnn/includeAttnn).
        fatal("TraceRegistry: missing traces for '" + name +
              "'; available trace sets: " + joinComma(keys()));
    }
    return *k;
}

ModelInfoLut
TraceRegistry::buildLut() const
{
    ModelInfoLut lut;
    // Both tables order entries by key string, so every LUT entry
    // gets the ModelKey of its trace set.
    for (const auto& set : sets.all())
        lut.addFromTrace(*set);
    return lut;
}

std::vector<std::string>
workloadModels(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::MultiAttNN:
        // Personal assistant: translation (BART, GPT-2) + QA (BERT).
        return {"bert", "gpt2", "bart"};
      case WorkloadKind::MultiCNN:
        // Visual perception (SSD, VGG-16, ResNet-50) + hand tracking
        // (SSD) + gesture recognition (MobileNet).
        return {"ssd300", "vgg16", "resnet50", "ssd300", "mobilenet"};
    }
    panic("workloadModels: unknown WorkloadKind");
}

WorkloadMix::WorkloadMix(WorkloadKind kind,
                         const TraceRegistry& traces)
    : registry(&traces),
      models(workloadModels(kind)),
      patterns(kind == WorkloadKind::MultiCNN
                   ? cnnPatterns()
                   : std::vector<SparsityPattern>{
                         SparsityPattern::Dense})
{
    picks.reserve(models.size() * patterns.size());
    for (const std::string& model : models) {
        for (SparsityPattern pattern : patterns) {
            Pick pick;
            // A missing pair fails only if a draw reaches it.
            if (traces.contains(model, pattern)) {
                pick.key = traces.key(model, pattern);
                pick.set = &traces.get(pick.key);
            }
            picks.push_back(pick);
        }
    }
}

WorkloadMix::Pick
WorkloadMix::draw(Rng& rng) const
{
    size_t m = rng.uniformInt(0, models.size() - 1);
    size_t p = rng.uniformInt(0, patterns.size() - 1);
    const Pick& pick = picks[m * patterns.size() + p];
    if (pick.set == nullptr)
        registry->key(models[m], patterns[p]); // fatal(): names the pair
    return pick;
}

std::vector<Request>
generateWorkload(const WorkloadConfig& config,
                 const TraceRegistry& registry)
{
    // Drain the one generator, so materialized and streaming runs
    // share its seed derivation, draw order and input checks.
    WorkloadArrivalSource source(config, registry);
    std::vector<Request> requests;
    requests.reserve(source.total());
    while (Request* req = source.next()) {
        requests.push_back(*req);
        source.retire(req, req->arrival);
    }
    return requests;
}

} // namespace dysta
