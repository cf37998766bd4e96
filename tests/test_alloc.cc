/**
 * @file
 * Allocation budget of the run path: the heap allocations one more
 * simulated request costs in runSweepCell, counted through a global
 * operator new/delete replacement. The marginal count between N and
 * 3N requests excludes the per-cell setup (policy, calendar, fleet),
 * so it measures only what grows with the request count — per-event
 * and per-decision churn shows up here long before it shows up in a
 * wall-clock benchmark.
 *
 * Its own binary because the replacement is program-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "api/scenario.hh"
#include "exp/sweep.hh"

namespace {

std::atomic<uint64_t> g_allocations{0};

void*
countedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

} // namespace

// Replacements forward to malloc/free, so sanitizer builds still see
// every allocation and pair it with its release.
void*
operator new(std::size_t size)
{
    if (void* p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    if (void* p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace dysta {
namespace {

constexpr int kRequests = 1000;

/** Heap allocations of one runSweepCell call with `requests`. */
uint64_t
allocationsOfRun(const BenchContext& ctx, SweepCell cell, int requests)
{
    cell.workload.numRequests = requests;
    uint64_t before = g_allocations.load();
    SweepCellResult result = runSweepCell(ctx, cell);
    uint64_t after = g_allocations.load();
    EXPECT_EQ(result.metrics.completed + result.metrics.shed,
              static_cast<size_t>(requests));
    return after - before;
}

/** Allocations per request between kRequests and 3 * kRequests. */
double
marginalAllocationsPerRequest(const BenchContext& ctx,
                              const SweepCell& cell)
{
    uint64_t small = allocationsOfRun(ctx, cell, kRequests);
    uint64_t large = allocationsOfRun(ctx, cell, 3 * kRequests);
    return (static_cast<double>(large) - static_cast<double>(small)) /
           (2.0 * kRequests);
}

/** The shipped scenario at one seed replica and a small profile. */
ScenarioSpec
scenario(const std::string& name)
{
    ScenarioSpec spec =
        parseScenarioFile(std::string(DYSTA_SCENARIO_DIR) + "/" + name +
                          ".scn");
    spec.seeds = 1;
    spec.samples = 60;
    return spec;
}

TEST(AllocationBudget, MegascaleCellAllocatesAlmostNothingPerRequest)
{
    ScenarioSpec spec = scenario("megascale");
    std::unique_ptr<BenchContext> ctx =
        makeBenchContext(scenarioSetup(spec));
    std::vector<SweepCell> cells = scenarioCells(spec);
    ASSERT_FALSE(cells.empty());
    for (const SweepCell& cell : cells) {
        // The shape this budget is about: streaming arrivals, sketch
        // metrics, four Sanger nodes, Dysta, least-outstanding
        // dispatch and admission control.
        ASSERT_TRUE(cell.streaming);
        ASSERT_EQ(cell.metricsKind, MetricsKind::Sketch);
        ASSERT_TRUE(cell.clusterMode);
        ASSERT_EQ(cell.cluster.nodes.size(), 4u);
        ASSERT_EQ(cell.scheduler, "Dysta");
        double per_request = marginalAllocationsPerRequest(*ctx, cell);
        EXPECT_LE(per_request, 0.5)
            << "arrival " << toString(cell.workload.arrival.kind);
    }
}

TEST(AllocationBudget, Tab05CellsAllocateAlmostNothingPerRequest)
{
    ScenarioSpec spec = scenario("tab05");
    std::unique_ptr<BenchContext> ctx =
        makeBenchContext(scenarioSetup(spec));
    std::vector<SweepCell> cells = scenarioCells(spec);
    ASSERT_FALSE(cells.empty());
    // Every policy runs here, on materialized multi-CNN and
    // multi-AttNN workloads.
    for (const SweepCell& cell : cells) {
        double per_request = marginalAllocationsPerRequest(*ctx, cell);
        EXPECT_LE(per_request, 0.5)
            << toString(cell.workload.kind) << " " << cell.scheduler;
    }
}

TEST(AllocationBudget, BatchingCellsAllocateAlmostNothingPerRequest)
{
    ScenarioSpec spec = scenario("batching");
    std::unique_ptr<BenchContext> ctx =
        makeBenchContext(scenarioSetup(spec));
    std::vector<SweepCell> cells = scenarioCells(spec);
    // Unbatched plus the fifo, greedy and sparsity compositions on a
    // saturated two-node Dysta fleet: ready sets run deep, and every
    // batch step composes from them and retires its members.
    ASSERT_EQ(cells.size(), 4u);
    for (const SweepCell& cell : cells) {
        ASSERT_TRUE(cell.clusterMode);
        ASSERT_EQ(cell.scheduler, "Dysta");
        double per_request = marginalAllocationsPerRequest(*ctx, cell);
        EXPECT_LE(per_request, 0.5)
            << "batcher "
            << (cell.cluster.batcher.empty() ? "none"
                                             : cell.cluster.batcher);
    }
}

} // namespace
} // namespace dysta
