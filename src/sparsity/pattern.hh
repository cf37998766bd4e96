/**
 * @file
 * Weight sparsity patterns studied by the paper (Sec. 2.3.2, Fig. 6):
 * point-wise random, N:M block-wise and channel-wise pruning, plus the
 * dense baseline. AttNNs use dynamic attention pruning instead and are
 * tagged Dense at the weight level.
 */

#ifndef DYSTA_SPARSITY_PATTERN_HH
#define DYSTA_SPARSITY_PATTERN_HH

#include <string>
#include <vector>

namespace dysta {

/** Static weight sparsity mask pattern. */
enum class SparsityPattern
{
    Dense,          ///< no weight pruning
    RandomPointwise,///< unstructured magnitude pruning
    BlockNM,        ///< N out of every M weights kept (e.g. 2:8)
    ChannelWise,    ///< whole output channels removed
};

std::string toString(SparsityPattern pattern);

/** The three CNN pruning patterns used by the benchmark. */
std::vector<SparsityPattern> cnnPatterns();

} // namespace dysta

#endif // DYSTA_SPARSITY_PATTERN_HH
