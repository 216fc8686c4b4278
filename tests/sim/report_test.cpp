// The +inf hardening of the report aggregators: cascade mean-stretch
// curves carry infinity sentinels ("nothing deliverable this trial"), and
// the fold must exclude them honestly — never let one poisoned trial
// silently flatten a mean.
#include "sim/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace intertubes::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SimReport, FiniteSamplesAggregatePlainly) {
  const auto point = aggregate_samples({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(point.mean, 2.5);
  EXPECT_EQ(point.samples, 4u);
  EXPECT_LE(point.p5, point.p50);
  EXPECT_LE(point.p50, point.p95);
}

TEST(SimReport, ExcludeDropsNonFiniteAndCountsSurvivors) {
  // One finite survivor: every percentile collapses onto it, and samples
  // records that only one value entered the aggregate.
  const auto point = aggregate_samples({kInf, 7.0, -kInf});
  EXPECT_DOUBLE_EQ(point.mean, 7.0);
  EXPECT_DOUBLE_EQ(point.p5, 7.0);
  EXPECT_DOUBLE_EQ(point.p50, 7.0);
  EXPECT_DOUBLE_EQ(point.p95, 7.0);
  EXPECT_EQ(point.samples, 1u);
}

TEST(SimReport, ExcludeTreatsNanAsNonFinite) {
  const auto point = aggregate_samples({std::nan(""), 2.0});
  EXPECT_DOUBLE_EQ(point.mean, 2.0);
  EXPECT_EQ(point.samples, 1u);
}

TEST(SimReport, AllExcludedStaysHonestlyInfinite) {
  // A step where no trial delivered anything must read as +inf with zero
  // samples — not as an alias of some large finite value.
  const auto point = aggregate_samples({kInf, kInf});
  EXPECT_TRUE(std::isinf(point.mean));
  EXPECT_TRUE(std::isinf(point.p50));
  EXPECT_EQ(point.samples, 0u);
}

TEST(SimReport, SeriesExcludesPerStepIndependently) {
  // Step 0 is fully finite, step 1 fully poisoned: exclusion is a per-step
  // decision, so the finite step keeps every trial.
  const auto curve = aggregate_series({{1.0, kInf}, {3.0, kInf}}, "stretch");
  EXPECT_EQ(curve.name, "stretch");
  ASSERT_EQ(curve.points.size(), 2u);
  EXPECT_DOUBLE_EQ(curve.points[0].mean, 2.0);
  EXPECT_EQ(curve.points[0].samples, 2u);
  EXPECT_TRUE(std::isinf(curve.points[1].mean));
  EXPECT_EQ(curve.points[1].samples, 0u);
}

TEST(SimReport, SeriesLengthMismatchThrows) {
  EXPECT_THROW(aggregate_series({{1.0, 2.0}, {1.0}}, "ragged"), std::logic_error);
}

TEST(SimReport, IspImpactSkipsUndamagedAndSortsByMean) {
  // ISP 0 never loses a link and must be absent; ISPs 1 and 2 sort
  // descending by mean loss.
  const auto impact = aggregate_isp_impact({{0, 1, 5}, {0, 3, 5}}, 3);
  ASSERT_EQ(impact.size(), 2u);
  EXPECT_EQ(impact[0].isp, 2u);
  EXPECT_DOUBLE_EQ(impact[0].mean_links_lost, 5.0);
  EXPECT_DOUBLE_EQ(impact[0].max_links_lost, 5.0);
  EXPECT_EQ(impact[1].isp, 1u);
  EXPECT_DOUBLE_EQ(impact[1].mean_links_lost, 2.0);
  EXPECT_DOUBLE_EQ(impact[1].max_links_lost, 3.0);
}

}  // namespace
}  // namespace intertubes::sim
