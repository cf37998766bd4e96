#include "sparsity/pattern.hh"

#include "util/logging.hh"

namespace dysta {

std::string
toString(SparsityPattern pattern)
{
    switch (pattern) {
      case SparsityPattern::Dense: return "dense";
      case SparsityPattern::RandomPointwise: return "random";
      case SparsityPattern::BlockNM: return "block_nm";
      case SparsityPattern::ChannelWise: return "channel";
    }
    panic("toString: unknown SparsityPattern");
}

std::vector<SparsityPattern>
cnnPatterns()
{
    return {SparsityPattern::RandomPointwise, SparsityPattern::BlockNM,
            SparsityPattern::ChannelWise};
}

} // namespace dysta
