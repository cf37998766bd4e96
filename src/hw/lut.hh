/**
 * @file
 * Fixed-capacity lookup tables caching per model-pattern information
 * (latency / sparsity / shape LUTs of Fig. 10). Entries are addressed
 * by a small integer id assigned at population time, as the RTL would
 * address an SRAM.
 */

#ifndef DYSTA_HW_LUT_HH
#define DYSTA_HW_LUT_HH

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/logging.hh"

namespace dysta {

/** Capacity-bounded id-addressed table with a name directory. */
template <typename Entry>
class HwLut
{
  public:
    explicit HwLut(size_t capacity)
        : cap(capacity)
    {
        panicIf(capacity == 0, "HwLut: capacity must be positive");
    }

    /** Install an entry under a key; returns its slot id. */
    size_t
    install(const std::string& key, Entry entry)
    {
        auto it = directory.find(key);
        if (it != directory.end()) {
            slots[it->second] = std::move(entry);
            return it->second;
        }
        fatalIf(slots.size() >= cap,
                "HwLut: capacity exceeded installing " + key);
        slots.push_back(std::move(entry));
        directory[key] = slots.size() - 1;
        return slots.size() - 1;
    }

    bool contains(const std::string& key) const
    {
        return directory.count(key) > 0;
    }

    /** Slot id for a key; fatal() when missing. */
    size_t
    idOf(const std::string& key) const
    {
        auto it = directory.find(key);
        if (it == directory.end())
            fatal("HwLut: missing key " + key);
        return it->second;
    }

    const Entry&
    read(size_t id) const
    {
        panicIf(id >= slots.size(), "HwLut: id out of range");
        return slots[id];
    }

    size_t size() const { return slots.size(); }
    size_t capacity() const { return cap; }

  private:
    size_t cap;
    std::vector<Entry> slots;
    std::unordered_map<std::string, size_t> directory;
};

} // namespace dysta

#endif // DYSTA_HW_LUT_HH
