#include "util/alloc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace intertubes::util {
namespace {

TEST(AllocCounting, HooksAreLinkedIntoTheTestBinary) {
  // The test binary links util/alloc_hooks.cpp precisely so the
  // ZeroAlloc* suites can assert on real counter deltas.
  EXPECT_TRUE(alloc_counting_active());
}

TEST(AllocCounting, CountersAdvanceOnHeapTraffic) {
  if (!alloc_counting_active()) GTEST_SKIP() << "alloc hooks not linked";
  ZeroAllocGuard guard;
  auto* p = new std::uint64_t(42);
  EXPECT_GE(guard.allocations(), 1u);
  EXPECT_GE(guard.bytes(), sizeof(std::uint64_t));
  delete p;
  EXPECT_GE(guard.frees(), 1u);
}

TEST(AllocCounting, GuardSeesZeroAcrossAllocationFreeWork) {
  if (!alloc_counting_active()) GTEST_SKIP() << "alloc hooks not linked";
  std::vector<std::uint64_t> buffer(1024, 1);
  ZeroAllocGuard guard;
  std::uint64_t sum = 0;
  for (const std::uint64_t v : buffer) sum += v;
  EXPECT_EQ(sum, 1024u);
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_EQ(guard.frees(), 0u);
}

TEST(AllocCounting, CountersAreThreadLocal) {
  if (!alloc_counting_active()) GTEST_SKIP() << "alloc hooks not linked";
  ZeroAllocGuard guard;
  std::thread other([] {
    std::vector<std::uint64_t> churn(4096);
    (void)churn;
  });
  other.join();
  // The other thread's traffic must not leak into this thread's window.
  // (std::thread construction itself allocates on this thread, so assert
  // on the churn delta being absent rather than an absolute zero.)
  EXPECT_LT(guard.bytes(), 4096 * sizeof(std::uint64_t));
}

TEST(LeasePool, LeasesReturnToThePool) {
  LeasePool<std::vector<int>> pool(4);
  {
    const auto lease = pool.acquire();
    lease->assign(8, 1);
    EXPECT_EQ(pool.idle(), 0u);
  }
  EXPECT_EQ(pool.idle(), 1u);
  EXPECT_EQ(pool.created(), 1u);
  const auto again = pool.acquire();
  EXPECT_EQ(pool.created(), 1u);  // reused, not re-made
  EXPECT_EQ(again->size(), 8u);
}

TEST(LeasePool, ReleaseBeyondCapDestroysInsteadOfRetaining) {
  LeasePool<std::vector<int>> pool(2);
  {
    std::vector<LeasePool<std::vector<int>>::Lease> burst;
    for (int i = 0; i < 5; ++i) burst.push_back(pool.acquire());
    EXPECT_EQ(pool.created(), 5u);
  }  // all five released at once; only cap() may be retained
  EXPECT_EQ(pool.idle(), 2u);
  EXPECT_EQ(pool.dropped(), 3u);
}

TEST(LeasePool, MovedFromLeaseReleasesNothing) {
  LeasePool<std::vector<int>> pool(4);
  auto lease = pool.acquire();
  auto moved = std::move(lease);
  EXPECT_FALSE(static_cast<bool>(lease));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(moved));
  EXPECT_EQ(pool.idle(), 0u);
  moved = LeasePool<std::vector<int>>::Lease{};
  EXPECT_EQ(pool.idle(), 1u);
}

}  // namespace
}  // namespace intertubes::util
