/**
 * @file
 * Interned (model, sparsity pattern) keys.
 *
 * The static scheduler keeps one LUT entry per (model, pattern) pair
 * (Sec. 4.1). Setup interns each pair's "<model>/<pattern>" string
 * (TraceSet::makeKey) into a dense ModelKey: the pair's rank among
 * the sorted keys of the table that holds it. Requests carry their
 * ModelKey, so every lookup on the run path is a vector index rather
 * than a string hash. Two tables over the same key set — a
 * TraceRegistry and the ModelInfoLut built from it — give every pair
 * the same key.
 */

#ifndef DYSTA_TRACE_MODEL_KEY_HH
#define DYSTA_TRACE_MODEL_KEY_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace dysta {

/** Dense id of one (model, sparsity pattern) pair. */
struct ModelKey
{
    uint32_t id = UINT32_MAX;

    size_t index() const { return id; }

    friend bool operator==(ModelKey a, ModelKey b) { return a.id == b.id; }
    friend bool operator!=(ModelKey a, ModelKey b) { return a.id != b.id; }
};

/**
 * Values addressed by ModelKey, stored in sorted key-string order.
 * Inserting a new key renumbers the keys after it, so keys are taken
 * once the table is complete (at the end of setup).
 */
template <typename T>
class ModelKeyTable
{
  public:
    /** Insert, or replace the value of an existing key. */
    void
    put(const std::string& name, T value)
    {
        auto it = std::lower_bound(keyNames.begin(), keyNames.end(), name);
        auto pos = values.begin() + (it - keyNames.begin());
        if (it != keyNames.end() && *it == name) {
            *pos = std::move(value);
            return;
        }
        keyNames.insert(it, name);
        values.insert(pos, std::move(value));
    }

    /** The key interned for `name`, if any. */
    std::optional<ModelKey>
    find(const std::string& name) const
    {
        auto it = std::lower_bound(keyNames.begin(), keyNames.end(), name);
        if (it == keyNames.end() || *it != name)
            return std::nullopt;
        return ModelKey{static_cast<uint32_t>(it - keyNames.begin())};
    }

    const T&
    operator[](ModelKey key) const
    {
        panicIf(key.index() >= values.size(),
                "ModelKeyTable: key out of range");
        return values[key.index()];
    }

    /** Key strings in key order. */
    const std::vector<std::string>& names() const { return keyNames; }
    /** Values in key order. */
    const std::vector<T>& all() const { return values; }
    size_t size() const { return values.size(); }

  private:
    std::vector<std::string> keyNames;
    std::vector<T> values;
};

} // namespace dysta

#endif // DYSTA_TRACE_MODEL_KEY_HH
