#include "optimize/latency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geo/latency.hpp"
#include "test_support.hpp"
#include "util/stats.hpp"

namespace intertubes::optimize {
namespace {

const LatencyStudy& study() {
  static const LatencyStudy s =
      latency_study(testing::shared_scenario().map(), core::Scenario::cities(),
                    testing::shared_scenario().row());
  return s;
}

TEST(LatencyStudy, OnePairPerLinkedCityPair) {
  // Pairs are distinct unordered city pairs with at least one mapped link.
  std::set<std::pair<transport::CityId, transport::CityId>> expected;
  for (const auto& link : testing::shared_scenario().map().links()) {
    expected.insert({std::min(link.a, link.b), std::max(link.a, link.b)});
  }
  EXPECT_EQ(study().pairs.size(), expected.size());
}

TEST(LatencyStudy, OrderingInvariants) {
  // LOS <= ROW (a conduit cannot beat the straight line) and
  // ROW <= best existing (existing paths ride the same ROW graph) and
  // best <= avg.
  for (const auto& pair : study().pairs) {
    EXPECT_LE(pair.los_ms, pair.row_ms + 1e-9);
    // +inf row_ms (ROW-unreachable) trivially satisfies LOS <= ROW but
    // says nothing about ROW vs best.
    if (pair.row_reachable) {
      EXPECT_LE(pair.row_ms, pair.best_ms + 1e-9);
    }
    EXPECT_LE(pair.best_ms, pair.avg_ms + 1e-9);
    EXPECT_GT(pair.path_count, 0u);
  }
}

TEST(LatencyStudy, DelaysArePlausible) {
  // Continental US: one-way delays within ~35 ms.
  for (const auto& pair : study().pairs) {
    EXPECT_GT(pair.los_ms, 0.0);
    EXPECT_LT(pair.avg_ms, 40.0);
  }
}

TEST(LatencyStudy, BestIsRowFractionMatchesPaper) {
  // §5.3: "about 65 % of the best paths are also the best ROW paths".
  EXPECT_GT(study().fraction_best_is_row, 0.45);
  EXPECT_LT(study().fraction_best_is_row, 0.9);
}

TEST(LatencyStudy, AverageExceedsBestSubstantiallySomewhere) {
  // The paper: average delays are often substantially higher than best.
  std::size_t substantially = 0;
  for (const auto& pair : study().pairs) {
    if (pair.path_count >= 2 && pair.avg_ms > 1.1 * pair.best_ms) ++substantially;
  }
  EXPECT_GE(substantially, 10u);
}

TEST(LatencyStudy, RowLosGapDistribution) {
  // 50 % of pairs within ~100 µs, a tail beyond — loose bands around the
  // paper's numbers.
  std::vector<double> gap_us;
  for (const auto& pair : study().pairs) {
    if (pair.row_reachable) gap_us.push_back((pair.row_ms - pair.los_ms) * 1000.0);
  }
  ASSERT_FALSE(gap_us.empty());
  EXPECT_LT(median(gap_us), 150.0);
  EXPECT_GT(percentile(gap_us, 95.0), 50.0);
}

TEST(LatencyStudy, PairDelayMatchesManualComputation) {
  // Recompute one pair by hand.
  const auto& map = testing::shared_scenario().map();
  const auto& pair = study().pairs.front();
  double best = 1e18;
  RunningStats avg;
  for (const auto& link : map.links()) {
    const auto key = std::make_pair(std::min(link.a, link.b), std::max(link.a, link.b));
    if (key != std::make_pair(pair.a, pair.b)) continue;
    best = std::min(best, link.length_km);
    avg.add(link.length_km);
  }
  EXPECT_NEAR(pair.best_ms, geo::fiber_delay_ms(best), 1e-9);
  EXPECT_NEAR(pair.avg_ms, geo::fiber_delay_ms(avg.mean()), 1e-9);
  EXPECT_EQ(pair.path_count, avg.count());
}

TEST(LatencyStudy, LosMatchesGreatCircle) {
  const auto& cities = core::Scenario::cities();
  for (std::size_t i = 0; i < study().pairs.size(); i += 37) {
    const auto& pair = study().pairs[i];
    const double km =
        geo::distance_km(cities.city(pair.a).location, cities.city(pair.b).location);
    EXPECT_NEAR(pair.los_ms, geo::fiber_delay_ms(km), 1e-9);
  }
}

}  // namespace
}  // namespace intertubes::optimize
