#include "models/model.hh"

#include "util/logging.hh"

namespace dysta {

std::string
toString(ModelFamily family)
{
    switch (family) {
      case ModelFamily::CNN: return "CNN";
      case ModelFamily::AttNN: return "AttNN";
    }
    panic("toString: unknown ModelFamily");
}

uint64_t
ModelDesc::totalMacs(int seq_len) const
{
    uint64_t total = 0;
    for (const auto& layer : layers)
        total += layer.macs(seq_len);
    return total;
}

uint64_t
ModelDesc::totalWeights() const
{
    uint64_t total = 0;
    for (const auto& layer : layers)
        total += layer.weightCount();
    return total;
}

} // namespace dysta
