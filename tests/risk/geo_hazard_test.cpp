#include "risk/geo_hazard.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_support.hpp"

namespace intertubes::risk {
namespace {

const core::Scenario& scenario() { return testing::shared_scenario(); }

sim::HazardRegion region_at(const char* city_name, double radius_km) {
  const auto id = core::Scenario::cities().find(city_name);
  EXPECT_TRUE(id.has_value()) << city_name;
  sim::HazardRegion region;
  region.center = core::Scenario::cities().city(*id).location;
  region.radius_km = radius_km;
  return region;
}

TEST(GeoHazard, RegionOverHubCutsManyConduits) {
  // A 100 km disaster over Chicago severs every conduit touching it.
  const auto cut =
      sim::conduits_in_region(scenario().map(), scenario().row(), region_at("Chicago, IL", 100.0));
  const auto chicago = core::Scenario::cities().find("Chicago, IL");
  EXPECT_GE(cut.size(), scenario().map().conduits_at(*chicago).size());
}

TEST(GeoHazard, RemoteRegionCutsLittle) {
  // Mid-ocean disaster: nothing to cut.
  sim::HazardRegion atlantic;
  atlantic.center = {35.0, -60.0};
  atlantic.radius_km = 200.0;
  EXPECT_TRUE(sim::conduits_in_region(scenario().map(), scenario().row(), atlantic).empty());
}

TEST(GeoHazard, RadiusMonotone) {
  const auto small =
      sim::conduits_in_region(scenario().map(), scenario().row(), region_at("Denver, CO", 50.0));
  const auto large =
      sim::conduits_in_region(scenario().map(), scenario().row(), region_at("Denver, CO", 250.0));
  EXPECT_GE(large.size(), small.size());
  // Every conduit in the small region is in the large one.
  for (auto cid : small) {
    EXPECT_TRUE(std::find(large.begin(), large.end(), cid) != large.end());
  }
}

TEST(GeoHazard, AssessCountsConsistent) {
  const auto impact =
      assess_hazard(scenario().map(), scenario().row(), region_at("Dallas, TX", 120.0));
  EXPECT_GT(impact.conduits_cut, 0u);
  EXPECT_GT(impact.links_hit, 0u);
  EXPECT_GE(impact.links_hit, impact.isps_hit);
  EXPECT_LE(impact.isps_hit, scenario().map().num_isps());
  EXPECT_GT(impact.connectivity, 0.3);
  EXPECT_LE(impact.connectivity, 1.0);
}

TEST(GeoHazard, EmptyRegionImpactIsNeutral) {
  sim::HazardRegion nowhere;
  nowhere.center = {30.0, -60.0};
  nowhere.radius_km = 50.0;
  const auto impact = assess_hazard(scenario().map(), scenario().row(), nowhere);
  EXPECT_EQ(impact.conduits_cut, 0u);
  EXPECT_EQ(impact.links_hit, 0u);
  EXPECT_DOUBLE_EQ(impact.connectivity, 1.0);
}

TEST(GeoHazard, StudyStatisticsSane) {
  const auto study = hazard_study(scenario().map(), core::Scenario::cities(), scenario().row(),
                                  100.0, 60, 0x1257);
  EXPECT_GT(study.mean_links_hit, 0.0);
  EXPECT_GE(study.p95_links_hit, study.mean_links_hit * 0.5);
  EXPECT_GE(static_cast<double>(study.worst_impact.links_hit), study.p95_links_hit - 1e-9);
  EXPECT_GT(study.mean_connectivity, 0.5);
  EXPECT_LE(study.mean_connectivity, 1.0);
}

TEST(GeoHazard, StudyDeterministicInSeed) {
  const auto s1 = hazard_study(scenario().map(), core::Scenario::cities(), scenario().row(),
                               100.0, 30, 42);
  const auto s2 = hazard_study(scenario().map(), core::Scenario::cities(), scenario().row(),
                               100.0, 30, 42);
  EXPECT_DOUBLE_EQ(s1.mean_links_hit, s2.mean_links_hit);
  EXPECT_EQ(s1.worst_impact.links_hit, s2.worst_impact.links_hit);
}

TEST(GeoHazard, BiggerDisastersHurtMore) {
  const auto small = hazard_study(scenario().map(), core::Scenario::cities(), scenario().row(),
                                  50.0, 40, 7);
  const auto large = hazard_study(scenario().map(), core::Scenario::cities(), scenario().row(),
                                  250.0, 40, 7);
  EXPECT_GT(large.mean_links_hit, small.mean_links_hit);
  EXPECT_GT(large.mean_conduits_cut, small.mean_conduits_cut);
}

TEST(GeoHazard, WorstCasePlacementBeatsTypical) {
  const auto worst = worst_case_placement(scenario().map(), core::Scenario::cities(),
                                          scenario().row(), 100.0, 150.0);
  const auto worst_impact = assess_hazard(scenario().map(), scenario().row(), worst);
  const auto study = hazard_study(scenario().map(), core::Scenario::cities(), scenario().row(),
                                  100.0, 40, 0x99);
  EXPECT_GE(static_cast<double>(worst_impact.links_hit), study.mean_links_hit);
  EXPECT_GT(worst_impact.conduits_cut, 0u);
}

TEST(GeoHazard, IspExposureBounded) {
  const auto exposure = isp_hazard_exposure(scenario().map(), core::Scenario::cities(),
                                            scenario().row(), 100.0, 40, 0x1257);
  ASSERT_EQ(exposure.size(), scenario().map().num_isps());
  for (double e : exposure) {
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
  // Someone is exposed.
  EXPECT_GT(*std::max_element(exposure.begin(), exposure.end()), 0.01);
}

TEST(GeoHazard, RejectsBadInputs) {
  sim::HazardRegion bad;
  bad.center = {40.0, -100.0};
  bad.radius_km = 0.0;
  EXPECT_THROW(sim::conduits_in_region(scenario().map(), scenario().row(), bad), std::logic_error);
  EXPECT_THROW(hazard_study(scenario().map(), core::Scenario::cities(), scenario().row(), 100.0,
                            0, 1),
               std::logic_error);
}

}  // namespace
}  // namespace intertubes::risk
