#include "traceroute/overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_support.hpp"
#include "traceroute/campaign_fixture.hpp"

namespace intertubes::traceroute {
namespace {

using core::ConduitId;

const L3Topology& topo() { return testing::shared_l3_topology(); }
const Campaign& campaign() { return testing::shared_campaign(); }

const OverlayResult& overlay() {
  static const OverlayResult o =
      overlay_campaign(testing::shared_scenario().map(), core::Scenario::cities(), campaign());
  return o;
}

TEST(Overlay, UsageIndexedByConduit) {
  EXPECT_EQ(overlay().usage.size(), testing::shared_scenario().map().conduits().size());
}

TEST(Overlay, MostSegmentsMapped) {
  EXPECT_GT(overlay().mapped_segments, 0u);
  const double unmapped_rate =
      static_cast<double>(overlay().unmapped_segments) /
      static_cast<double>(overlay().mapped_segments + overlay().unmapped_segments);
  EXPECT_LT(unmapped_rate, 0.05);
}

TEST(Overlay, ProbeMassConserved) {
  // Every mapped segment contributes to at least one conduit.
  std::uint64_t total_usage = 0;
  for (const auto& u : overlay().usage) total_usage += u.total();
  EXPECT_GE(total_usage, overlay().mapped_segments);
}

TEST(Overlay, DirectionSplitIsConsistent) {
  // Both directions must carry substantial traffic (clients probe both
  // ways), and each conduit's totals add up.
  std::uint64_t we = 0;
  std::uint64_t ew = 0;
  for (const auto& u : overlay().usage) {
    we += u.probes_west_east;
    ew += u.probes_east_west;
    EXPECT_EQ(u.total(), u.probes_west_east + u.probes_east_west);
  }
  EXPECT_GT(we, 0u);
  EXPECT_GT(ew, 0u);
}

TEST(Overlay, TopConduitsSortedAndBounded) {
  for (const auto dir : {Direction::WestToEast, Direction::EastToWest}) {
    const auto top = overlay().top_conduits(dir, 20);
    EXPECT_LE(top.size(), 20u);
    ASSERT_FALSE(top.empty());
    for (std::size_t i = 0; i + 1 < top.size(); ++i) {
      EXPECT_GE(top[i].probes, top[i + 1].probes);
    }
    for (const auto& rc : top) {
      EXPECT_GT(rc.probes, 0u);
      EXPECT_LT(rc.conduit, overlay().usage.size());
    }
  }
}

TEST(Overlay, TopConduitsBetweenPopulousEndpoints) {
  // The busiest conduit should touch the big-population routing backbone:
  // at least one endpoint of the top-5 conduits is a >= 200k city.
  const auto& map = testing::shared_scenario().map();
  const auto& cities = core::Scenario::cities();
  const auto top = overlay().top_conduits(Direction::WestToEast, 5);
  for (const auto& rc : top) {
    const auto& c = map.conduit(rc.conduit);
    const auto pop = std::max(cities.city(c.a).population, cities.city(c.b).population);
    EXPECT_GE(pop, 100000u);
  }
}

TEST(Overlay, ObservedIspsSortedUnique) {
  for (const auto& u : overlay().usage) {
    EXPECT_TRUE(std::is_sorted(u.observed_isps.begin(), u.observed_isps.end()));
    EXPECT_TRUE(std::adjacent_find(u.observed_isps.begin(), u.observed_isps.end()) ==
                u.observed_isps.end());
  }
}

TEST(Overlay, IspsByConduitsUsedRankedDescending) {
  const auto ranked = overlay().isps_by_conduits_used(20);
  ASSERT_GE(ranked.size(), 10u);
  for (std::size_t i = 0; i + 1 < ranked.size(); ++i) {
    EXPECT_GE(ranked[i].second, ranked[i + 1].second);
  }
}

TEST(Overlay, Level3CarriesMostTraffic) {
  // Table 4's headline: Level 3's infrastructure is the most widely used.
  const auto& profiles = testing::shared_scenario().truth().profiles();
  const auto ranked = overlay().isps_by_conduits_used(profiles.size());
  ASSERT_FALSE(ranked.empty());
  const auto& top_names = ranked;
  // Level 3 within the top 3 (exact order can wobble with EarthLink /
  // CenturyLink which have comparably wide footprints).
  bool found = false;
  for (std::size_t i = 0; i < 3 && i < top_names.size(); ++i) {
    if (profiles[top_names[i].first].name == "Level 3") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Overlay, SharingCdfShiftsRight) {
  // Figure 9: considering traceroute-observed ISPs, conduit tenancy can
  // only grow, and grows strictly for a meaningful share of conduits.
  const auto data = sharing_before_after(testing::shared_scenario().map(), overlay());
  ASSERT_EQ(data.physical_only.size(), data.with_observed.size());
  std::size_t grew = 0;
  for (std::size_t i = 0; i < data.physical_only.size(); ++i) {
    EXPECT_GE(data.with_observed[i], data.physical_only[i]);
    if (data.with_observed[i] > data.physical_only[i]) ++grew;
  }
  EXPECT_GT(grew, data.physical_only.size() / 4);
}

TEST(OverlayAccuracy, ReasonableOnRealCampaign) {
  const auto accuracy =
      evaluate_overlay_accuracy(testing::shared_scenario().map(), campaign());
  EXPECT_GT(accuracy.probes_evaluated, 10000u);
  EXPECT_GT(accuracy.corridor_precision, 0.35);
  EXPECT_LE(accuracy.corridor_precision, 1.0);
  EXPECT_GT(accuracy.corridor_recall, 0.3);
  EXPECT_LE(accuracy.corridor_recall, 1.0);
  EXPECT_LE(accuracy.flows_fully_correct, accuracy.corridor_precision);
}

TEST(OverlayAccuracy, MoreTunnelingNeverHelps) {
  auto params = [](double hide) {
    CampaignParams p;
    p.seed = 0x1257;
    p.num_probes = 30000;
    p.mpls_hide_prob = hide;
    return p;
  };
  const auto clean = run_campaign(topo(), core::Scenario::cities(), params(0.0));
  const auto tunneled = run_campaign(topo(), core::Scenario::cities(), params(0.6));
  const auto clean_acc =
      evaluate_overlay_accuracy(testing::shared_scenario().map(), clean);
  const auto tunneled_acc =
      evaluate_overlay_accuracy(testing::shared_scenario().map(), tunneled);
  EXPECT_GE(clean_acc.corridor_recall + 1e-9, tunneled_acc.corridor_recall);
}

TEST(OverlayAccuracy, EmptyCampaignIsZero) {
  Campaign empty;
  const auto accuracy =
      evaluate_overlay_accuracy(testing::shared_scenario().map(), empty);
  EXPECT_EQ(accuracy.probes_evaluated, 0u);
  EXPECT_DOUBLE_EQ(accuracy.corridor_precision, 0.0);
}

TEST(Overlay, EmptyCampaignProducesZeroUsage) {
  Campaign empty;
  const auto result =
      overlay_campaign(testing::shared_scenario().map(), core::Scenario::cities(), empty);
  for (const auto& u : result.usage) {
    EXPECT_EQ(u.total(), 0u);
    EXPECT_TRUE(u.observed_isps.empty());
  }
  EXPECT_EQ(result.mapped_segments, 0u);
}

TEST(Overlay, HandBuiltFlowDirectionBookkeeping) {
  // One synthetic eastbound flow between two adjacent map nodes must land
  // exactly on the direct conduit, in the west→east bucket.
  const auto& map = testing::shared_scenario().map();
  const auto& cities = core::Scenario::cities();
  // Find a conduit whose endpoints differ in longitude.
  const core::Conduit* conduit = nullptr;
  for (const auto& c : map.conduits()) {
    if (cities.city(c.a).location.lon_deg < cities.city(c.b).location.lon_deg - 0.5) {
      conduit = &c;
      break;
    }
  }
  ASSERT_NE(conduit, nullptr);
  Campaign synthetic;
  TraceFlow flow;
  flow.src = conduit->a;   // west
  flow.dst = conduit->b;   // east
  flow.count = 7;
  flow.hops = {ObservedHop{conduit->a, "", isp::kNoIsp},
               ObservedHop{conduit->b, "", isp::kNoIsp}};
  synthetic.flows.push_back(flow);
  const auto result = overlay_campaign(map, cities, synthetic);
  std::uint64_t we = 0;
  std::uint64_t ew = 0;
  for (const auto& usage : result.usage) {
    we += usage.probes_west_east;
    ew += usage.probes_east_west;
  }
  EXPECT_GE(we, 7u);     // attribution may cross >= 1 conduit
  EXPECT_EQ(ew, 0u);     // nothing eastbound-origin here
  // Reverse direction lands in the other bucket.
  Campaign reversed;
  TraceFlow back = flow;
  std::swap(back.src, back.dst);
  std::swap(back.hops[0], back.hops[1]);
  reversed.flows.push_back(back);
  const auto result2 = overlay_campaign(map, cities, reversed);
  std::uint64_t ew2 = 0;
  for (const auto& usage : result2.usage) ew2 += usage.probes_east_west;
  EXPECT_GE(ew2, 7u);
}

TEST(Overlay, NamingHintsPropagateToObservedIsps) {
  // A hop that names an ISP attributes that ISP to the segment's conduits.
  const auto& map = testing::shared_scenario().map();
  const auto& cities = core::Scenario::cities();
  const auto& conduit = map.conduits().front();
  Campaign synthetic;
  TraceFlow flow;
  flow.src = conduit.a;
  flow.dst = conduit.b;
  flow.count = 1;
  flow.hops = {ObservedHop{conduit.a, "x.sprintlink.net", 15},
               ObservedHop{conduit.b, "", isp::kNoIsp}};
  synthetic.flows.push_back(flow);
  const auto result = overlay_campaign(map, cities, synthetic);
  bool attributed = false;
  for (const auto& usage : result.usage) {
    if (std::find(usage.observed_isps.begin(), usage.observed_isps.end(), 15u) !=
        usage.observed_isps.end()) {
      attributed = true;
      break;
    }
  }
  EXPECT_TRUE(attributed);
}

TEST(Overlay, EqualLengthHopPathsGoToTheLowestConduitId) {
  // One hop pair A -> D with two 96 km paths, A-B-D and A-C-D (dyadic
  // lengths, so the sums tie exactly).  B settles before C (lower city
  // id), so D is first relaxed through B-D; but C-D has the lower conduit
  // id, and the overlay keeps the equal-cost predecessor with the lowest
  // id, as route::PathEngine does.
  constexpr transport::CityId kA = 0, kB = 1, kC = 2, kD = 3;
  core::FiberMap map(1);
  const auto cd = map.ensure_conduit(prop::make_corridor(0, kC, kD, 32.0),
                                     core::Provenance::GeocodedMap);
  const auto ab = map.ensure_conduit(prop::make_corridor(1, kA, kB, 64.0),
                                     core::Provenance::GeocodedMap);
  const auto ac = map.ensure_conduit(prop::make_corridor(2, kA, kC, 64.0),
                                     core::Provenance::GeocodedMap);
  const auto bd = map.ensure_conduit(prop::make_corridor(3, kB, kD, 32.0),
                                     core::Provenance::GeocodedMap);
  ASSERT_LT(cd, bd);

  Campaign synthetic;
  TraceFlow flow;
  flow.src = kA;
  flow.dst = kD;
  flow.count = 5;
  flow.hops = {ObservedHop{kA, "", isp::kNoIsp}, ObservedHop{kD, "", isp::kNoIsp}};
  flow.true_corridors = {map.conduit(ac).corridor, map.conduit(cd).corridor};
  synthetic.flows.push_back(flow);

  const auto result = overlay_campaign(map, core::Scenario::cities(), synthetic);
  EXPECT_EQ(result.mapped_segments, 5u);
  EXPECT_EQ(result.usage[ac].total(), 5u);
  EXPECT_EQ(result.usage[cd].total(), 5u);
  EXPECT_EQ(result.usage[ab].total(), 0u);
  EXPECT_EQ(result.usage[bd].total(), 0u);

  const auto accuracy = evaluate_overlay_accuracy(map, synthetic);
  EXPECT_EQ(accuracy.probes_evaluated, 5u);
  EXPECT_EQ(accuracy.corridor_precision, 1.0);
  EXPECT_EQ(accuracy.corridor_recall, 1.0);
  EXPECT_EQ(accuracy.flows_fully_correct, 1.0);
}

TEST(Overlay, DeterministicGivenSameInputs) {
  const auto again =
      overlay_campaign(testing::shared_scenario().map(), core::Scenario::cities(), campaign());
  for (std::size_t i = 0; i < again.usage.size(); ++i) {
    EXPECT_EQ(again.usage[i].probes_west_east, overlay().usage[i].probes_west_east);
    EXPECT_EQ(again.usage[i].probes_east_west, overlay().usage[i].probes_east_west);
    EXPECT_EQ(again.usage[i].observed_isps, overlay().usage[i].observed_isps);
  }
}

}  // namespace
}  // namespace intertubes::traceroute
