#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace intertubes {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000000007ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowZeroBoundIsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(17);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextInDegenerateRange) {
  Rng rng(19);
  EXPECT_EQ(rng.next_in(5, 5), 5);
  EXPECT_EQ(rng.next_in(5, 4), 5);  // hi < lo collapses to lo
}

TEST(Rng, UniformRange) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 7.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(29);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalShifted) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(37);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.3));
    EXPECT_TRUE(rng.chance(1.7));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(43);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ParetoAtLeastScale) {
  Rng rng(47);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 3.0), 3.0);
  }
}

TEST(Rng, ZipfRange) {
  Rng rng(53);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.zipf(100, 1.1), 100u);
  }
}

TEST(Rng, ZipfFavorsLowRanks) {
  Rng rng(59);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.zipf(50, 1.2)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[49] * 5);
}

TEST(Rng, ZipfSingleElement) {
  Rng rng(61);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.zipf(1, 1.0), 0u);
}

TEST(Rng, WeightedPickRespectsZeros) {
  Rng rng(67);
  const std::vector<double> w{0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 1000; ++i) {
    const auto pick = rng.weighted_pick(w);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(Rng, WeightedPickProportional) {
  Rng rng(71);
  const std::vector<double> w{1.0, 3.0};
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ones += rng.weighted_pick(w) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(Rng, WeightedPickAllZeroFallsBackToFirst) {
  Rng rng(73);
  const std::vector<double> w{0.0, 0.0};
  EXPECT_EQ(rng.weighted_pick(w), 0u);
}

TEST(Rng, WeightedPickWithTotalDrawsTheSameIndices) {
  // Summing the positive weights once, in index order, gives the draw the
  // one-argument form makes.
  const std::vector<double> w{0.0, 0.1, -2.0, 3.7, 0.2, 1e-9, 5.5};
  double total = 0.0;
  for (double x : w) total += x > 0.0 ? x : 0.0;
  Rng summed(83);
  Rng given(83);
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(summed.weighted_pick(w), given.weighted_pick(w, total));
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(79);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleChangesOrderEventually) {
  Rng rng(83);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  const auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng rng(89);
  const auto sample = rng.sample_indices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (auto idx : sample) EXPECT_LT(idx, 100u);
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(97);
  const auto sample = rng.sample_indices(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleIndicesRejectsOversample) {
  Rng rng(101);
  EXPECT_THROW(rng.sample_indices(5, 6), std::logic_error);
}

TEST(Rng, ForkDecouplesStreams) {
  Rng parent(103);
  Rng child = parent.fork();
  // Child stream should not mirror the parent's continuation.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Mix64, DeterministicAndSpread) {
  EXPECT_EQ(mix64(12345), mix64(12345));
  EXPECT_NE(mix64(1), mix64(2));
  // Low bits should not be constant across consecutive inputs.
  std::set<std::uint64_t> lows;
  for (std::uint64_t i = 0; i < 64; ++i) lows.insert(mix64(i) & 0xff);
  EXPECT_GT(lows.size(), 32u);
}

/// Property sweep: statistical invariants hold across seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMoments) {
  Rng rng(GetParam());
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST_P(RngSeedSweep, BernoulliConsistency) {
  Rng rng(GetParam());
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.5) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.5, 0.025);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1ULL, 2ULL, 0x1257ULL, 0xdeadbeefULL, 987654321ULL));

}  // namespace
}  // namespace intertubes
