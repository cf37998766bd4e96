#include "workload/workload.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>

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

void
TraceRegistry::saveAll(const std::string& dir) const
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    fatalIf(!std::filesystem::is_directory(dir),
            "TraceRegistry::saveAll: cannot create directory: " + dir);
    for (const auto& set : sets.all()) {
        std::string file = set->key();
        std::replace(file.begin(), file.end(), '/', '_');
        set->save(dir + "/" + file + ".csv");
    }
}

TraceRegistry
TraceRegistry::loadAll(const std::string& dir)
{
    fatalIf(!std::filesystem::is_directory(dir),
            "TraceRegistry::loadAll: not a directory: '" + dir +
                "' (expected a trace-cache directory of *.csv files "
                "written by saveAll)");
    TraceRegistry registry;
    // key -> file, to name both files of a duplicate: otherwise the
    // winner would be whichever the directory walk reached last.
    std::map<std::string, std::string> fileOf;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".csv")
            continue;
        std::string path = entry.path().string();
        TraceSet set = TraceSet::load(path);
        auto [it, fresh] = fileOf.emplace(set.key(), path);
        if (!fresh) {
            auto [first, second] = std::minmax(it->second, path);
            fatal("TraceRegistry::loadAll: " + first + " and " +
                  second + " both hold traces for '" + set.key() +
                  "'");
        }
        registry.add(std::move(set));
    }
    fatalIf(registry.size() == 0,
            "TraceRegistry::loadAll: no *.csv trace files in '" + dir +
                "'");
    return registry;
}

namespace {

/** "DYSTRC" + format version; bump on any layout change. */
constexpr uint64_t kTraceBinMagic = 0x4459535452430001ULL;

} // namespace

void
TraceRegistry::saveAllBinary(const std::string& path) const
{
    std::FILE* out = std::fopen(path.c_str(), "wb");
    fatalIf(out == nullptr,
            "TraceRegistry::saveAllBinary: cannot open " + path);

    auto put = [&](const void* p, size_t bytes) {
        if (std::fwrite(p, 1, bytes, out) != bytes)
            fatal("TraceRegistry::saveAllBinary: short write to " + path);
    };
    auto putU64 = [&](uint64_t v) { put(&v, sizeof(v)); };

    putU64(kTraceBinMagic);
    putU64(sets.size());
    // Key order for a stable file; load order doesn't matter.
    for (const auto& node : sets.all()) {
        const TraceSet& set = *node;
        const std::string& name = set.modelName();
        putU64(name.size());
        put(name.data(), name.size());
        uint8_t fam = static_cast<uint8_t>(set.family());
        uint8_t patt = static_cast<uint8_t>(set.pattern());
        put(&fam, 1);
        put(&patt, 1);
        putU64(set.layerCount());
        putU64(set.size());
        for (const SampleTrace& s : set.all()) {
            int32_t seq_len = s.seqLen;
            uint8_t dark = s.dark ? 1 : 0;
            put(&seq_len, sizeof(seq_len));
            put(&dark, 1);
            // LayerTrace is two packed doubles; write the span.
            static_assert(sizeof(LayerTrace) == 2 * sizeof(double),
                          "LayerTrace layout changed; bump "
                          "kTraceBinMagic");
            put(s.layers.data(), s.layers.size() * sizeof(LayerTrace));
        }
    }
    fatalIf(std::fclose(out) != 0,
            "TraceRegistry::saveAllBinary: close failed for " + path);
}

bool
TraceRegistry::loadAllBinary(const std::string& path,
                             TraceRegistry& out)
{
    std::FILE* in = std::fopen(path.c_str(), "rb");
    if (in == nullptr)
        return false;

    bool ok = true;
    auto get = [&](void* p, size_t bytes) {
        if (ok && std::fread(p, 1, bytes, in) != bytes)
            ok = false;
    };
    auto getU64 = [&]() {
        uint64_t v = 0;
        get(&v, sizeof(v));
        return v;
    };

    uint64_t magic = getU64();
    if (!ok || magic != kTraceBinMagic) {
        std::fclose(in);
        return false;
    }

    TraceRegistry loaded;
    uint64_t num_sets = getU64();
    for (uint64_t i = 0; ok && i < num_sets; ++i) {
        uint64_t name_len = getU64();
        if (!ok || name_len > 4096) {
            ok = false;
            break;
        }
        std::string name(name_len, '\0');
        get(name.data(), name_len);
        uint8_t fam = 0;
        uint8_t patt = 0;
        get(&fam, 1);
        get(&patt, 1);
        uint64_t layers = getU64();
        uint64_t samples = getU64();
        // Sanity bounds so a corrupt count fails the load cleanly
        // instead of attempting a gigantic allocation; an enum byte
        // out of range or a repeated key marks the blob corrupt too.
        if (!ok || layers == 0 || layers > (1u << 20) ||
            samples == 0 || samples > (1u << 26) ||
            fam > static_cast<uint8_t>(ModelFamily::AttNN) ||
            patt > static_cast<uint8_t>(SparsityPattern::ChannelWise) ||
            loaded.contains(name, static_cast<SparsityPattern>(patt))) {
            ok = false;
            break;
        }

        TraceSet set(name, static_cast<ModelFamily>(fam),
                     static_cast<SparsityPattern>(patt));
        for (uint64_t s = 0; ok && s < samples; ++s) {
            SampleTrace trace;
            int32_t seq_len = 0;
            uint8_t dark = 0;
            get(&seq_len, sizeof(seq_len));
            get(&dark, 1);
            trace.seqLen = seq_len;
            trace.dark = dark != 0;
            trace.layers.resize(layers);
            get(trace.layers.data(), layers * sizeof(LayerTrace));
            // A value TraceSet::load rejects in a CSV marks the blob
            // corrupt.
            for (const LayerTrace& layer : trace.layers)
                if (!layer.validLatency() || !layer.validSparsity())
                    ok = false;
            if (!ok)
                break;
            trace.finalize();
            set.add(std::move(trace));
        }
        if (ok)
            loaded.add(std::move(set));
    }
    std::fclose(in);
    if (!ok || loaded.size() == 0)
        return false;
    out = std::move(loaded);
    return true;
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
