#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/report.hpp"
#include "test_support.hpp"

namespace intertubes::sim {
namespace {

// The canonical 5-city barbell fixture (path 0-1-2 plus cycle 2-3-4-2)
// lives in prop/generators — the shared source for test-world builders.
using prop::barbell_map;

core::FiberMap barbell() { return barbell_map(); }

TEST(SimCampaign, BaselineStepIsIntact) {
  const auto map = barbell();
  const CampaignEngine engine(map);
  CampaignConfig config;
  config.stressor = Stressor::random_cuts(3);
  config.trials = 4;
  Executor executor(1);
  const auto report = engine.run(config, executor);
  ASSERT_EQ(report.connectivity.points.size(), 4u);
  EXPECT_DOUBLE_EQ(report.connectivity.points[0].mean, 1.0);
  EXPECT_DOUBLE_EQ(report.conduits_down.points[0].mean, 0.0);
  EXPECT_DOUBLE_EQ(report.links_hit.points[0].mean, 0.0);
  EXPECT_DOUBLE_EQ(report.components.points[0].mean, 1.0);
}

TEST(SimCampaign, AllConduitsCutMeansIsolation) {
  const auto map = barbell();
  const CampaignEngine engine(map);
  CampaignConfig config;
  config.stressor = Stressor::random_cuts(500);  // clamped to the conduit count
  config.trials = 3;
  Executor executor(2);
  const auto report = engine.run(config, executor);
  EXPECT_EQ(report.steps, map.conduits().size());
  EXPECT_DOUBLE_EQ(report.connectivity.points.back().mean, 0.0);
  EXPECT_DOUBLE_EQ(report.components.points.back().mean, 5.0);
  EXPECT_DOUBLE_EQ(report.weight_lost.points.back().mean, 1.0);
  // Both ISPs eventually lose every link.
  ASSERT_EQ(report.isp_impact.size(), 2u);
}

TEST(SimCampaign, ReportIsByteIdenticalAcrossThreadCounts) {
  const auto& scenario = testing::shared_scenario();
  const CampaignEngine engine(scenario.map());
  for (const auto stressor :
       {Stressor::random_cuts(12), Stressor::targeted_cuts(12)}) {
    CampaignConfig config;
    config.stressor = stressor;
    config.trials = 10;
    config.seed = 0xfee1dead;
    Executor serial(1);
    Executor two(2);
    Executor eight(8);
    const auto r1 = engine.run(config, serial);
    const auto r2 = engine.run(config, two);
    const auto r8 = engine.run(config, eight);
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(r1, r8);
    // Rendered artifacts match byte for byte as well.
    const auto& profiles = scenario.truth().profiles();
    EXPECT_EQ(render_report(r1, &profiles), render_report(r8, &profiles));
    EXPECT_EQ(report_curves_csv(r1), report_curves_csv(r8));
  }
}

TEST(SimCampaign, HazardCampaignDeterministicAcrossThreadCounts) {
  const auto& scenario = testing::shared_scenario();
  const CampaignEngine engine(scenario.map(), &core::Scenario::cities(), &scenario.row());
  CampaignConfig config;
  config.stressor = Stressor::correlated_hazards(3, 150.0);
  config.trials = 6;
  config.seed = 0x1257;
  Executor serial(1);
  Executor eight(8);
  const auto r1 = engine.run(config, serial);
  const auto r8 = engine.run(config, eight);
  EXPECT_EQ(r1, r8);
  // Disasters only degrade the map.
  for (std::size_t step = 1; step < r1.connectivity.points.size(); ++step) {
    EXPECT_LE(r1.connectivity.points[step].mean, r1.connectivity.points[step - 1].mean + 1e-12);
    EXPECT_GE(r1.links_hit.points[step].mean, r1.links_hit.points[step - 1].mean - 1e-12);
  }
}

TEST(SimCampaign, HazardWithoutGeographyThrows) {
  const auto map = barbell();
  const CampaignEngine engine(map);
  CampaignConfig config;
  config.stressor = Stressor::correlated_hazards(2, 100.0);
  config.trials = 2;
  Executor executor(2);
  EXPECT_THROW(engine.run(config, executor), std::logic_error);
}

TEST(SimCampaign, TargetedBeatsRandomEarly) {
  const auto& scenario = testing::shared_scenario();
  const CampaignEngine engine(scenario.map());
  Executor executor(2);
  CampaignConfig random;
  random.stressor = Stressor::random_cuts(8);
  random.trials = 8;
  CampaignConfig targeted;
  targeted.stressor = Stressor::targeted_cuts(8);
  targeted.trials = 1;  // deterministic stressor
  const auto r = engine.run(random, executor);
  const auto t = engine.run(targeted, executor);
  EXPECT_GT(t.links_hit.points[5].mean, 1.5 * r.links_hit.points[5].mean);
  EXPECT_GE(t.isps_hit.points[5].mean, r.isps_hit.points[5].mean);
  EXPECT_GT(t.weight_lost.points[5].mean, r.weight_lost.points[5].mean);
}

TEST(SimCampaign, EmptyMapYieldsSingleBaselinePoint) {
  const core::FiberMap map(3);  // ISPs but no conduits laid yet
  const CampaignEngine engine(map);
  Executor executor(2);
  for (const auto stressor : {Stressor::random_cuts(10), Stressor::targeted_cuts(10)}) {
    CampaignConfig config;
    config.stressor = stressor;
    config.trials = 4;
    const auto report = engine.run(config, executor);
    EXPECT_EQ(report.steps, 0u);
    ASSERT_EQ(report.connectivity.points.size(), 1u);
    EXPECT_DOUBLE_EQ(report.connectivity.points[0].mean, 1.0);
    EXPECT_DOUBLE_EQ(report.components.points[0].mean, 0.0);
    EXPECT_DOUBLE_EQ(report.links_hit.points[0].mean, 0.0);
    EXPECT_TRUE(report.isp_impact.empty());
  }
}

TEST(SimCampaign, TargetedCurveIsMonotoneAndBounded) {
  const auto& map = testing::shared_scenario().map();
  const CampaignEngine engine(map);
  CampaignConfig config;
  config.stressor = Stressor::targeted_cuts(30);
  config.trials = 1;
  Executor executor(2);
  const auto report = engine.run(config, executor);
  ASSERT_EQ(report.connectivity.points.size(), 31u);
  EXPECT_DOUBLE_EQ(report.links_hit.points[0].mean, 0.0);
  for (std::size_t f = 1; f <= report.steps; ++f) {
    EXPECT_DOUBLE_EQ(report.conduits_down.points[f].mean, static_cast<double>(f));
    EXPECT_LE(report.connectivity.points[f].mean,
              report.connectivity.points[f - 1].mean + 1e-12);
    EXPECT_GE(report.components.points[f].mean, report.components.points[f - 1].mean - 1e-12);
    EXPECT_GE(report.links_hit.points[f].mean, report.links_hit.points[f - 1].mean);
    EXPECT_LE(report.links_hit.points[f].mean, static_cast<double>(map.links().size()));
    EXPECT_LE(report.isps_hit.points[f].mean, static_cast<double>(map.num_isps()));
  }
}

TEST(SimCampaign, FirstTargetedCutHitsTenantCount) {
  // The adversary's first cut is the most-shared conduit: every link
  // through it is hit, and that's at least its tenant count.
  const auto& map = testing::shared_scenario().map();
  CampaignConfig config;
  config.stressor = Stressor::targeted_cuts(1);
  config.trials = 1;
  Executor executor(1);
  const auto report = CampaignEngine(map).run(config, executor);
  std::size_t max_tenants = 0;
  for (const auto& conduit : map.conduits()) {
    max_tenants = std::max(max_tenants, conduit.tenants.size());
  }
  EXPECT_GE(report.links_hit.points[1].mean, static_cast<double>(max_tenants));
}

TEST(SimCampaign, TrafficWeightsReorderWeightLost) {
  const auto map = barbell();
  // All probe volume on conduit 0: cutting it must dominate weight_lost.
  std::vector<std::uint64_t> probes(map.conduits().size(), 0);
  probes[0] = 1 << 20;
  const CampaignEngine engine(map, nullptr, nullptr, probes);
  CampaignConfig config;
  config.stressor = Stressor::targeted_cuts(map.conduits().size());
  config.trials = 1;
  Executor executor(1);
  const auto report = engine.run(config, executor);
  EXPECT_DOUBLE_EQ(report.weight_lost.points.back().mean, 1.0);
}

}  // namespace
}  // namespace intertubes::sim
