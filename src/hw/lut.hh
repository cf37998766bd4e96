/**
 * @file
 * Fixed-capacity lookup tables caching per model-pattern information
 * (latency / sparsity / shape LUTs of Fig. 10). Entries are addressed
 * by the pair's interned ModelKey, as the RTL would address an SRAM.
 */

#ifndef DYSTA_HW_LUT_HH
#define DYSTA_HW_LUT_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "trace/model_key.hh"
#include "util/logging.hh"

namespace dysta {

/**
 * Capacity-bounded table addressed by ModelKey: the key is the SRAM
 * address, so a read is one index.
 */
template <typename Entry>
class HwLut
{
  public:
    explicit HwLut(size_t capacity)
        : cap(capacity)
    {
        panicIf(capacity == 0, "HwLut: capacity must be positive");
    }

    /** Install an entry under a key, overwriting any previous one. */
    void
    install(ModelKey key, Entry entry)
    {
        if (key.index() >= slots.size())
            slots.resize(key.index() + 1);
        std::optional<Entry>& slot = slots[key.index()];
        if (!slot) {
            if (installed >= cap)
                fatal("HwLut: capacity exceeded installing key " +
                      std::to_string(key.id));
            ++installed;
        }
        slot = std::move(entry);
    }

    bool
    contains(ModelKey key) const
    {
        return key.index() < slots.size() && slots[key.index()];
    }

    /** The entry of a key; fatal() when missing. */
    const Entry&
    read(ModelKey key) const
    {
        if (!contains(key))
            fatal("HwLut: missing key " + std::to_string(key.id));
        return *slots[key.index()];
    }

    size_t size() const { return installed; }
    size_t capacity() const { return cap; }

  private:
    size_t cap;
    size_t installed = 0;
    std::vector<std::optional<Entry>> slots;
};

} // namespace dysta

#endif // DYSTA_HW_LUT_HH
