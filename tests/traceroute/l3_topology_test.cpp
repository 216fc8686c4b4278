#include "traceroute/l3_topology.hpp"

#include <gtest/gtest.h>

#include <set>

#include "test_support.hpp"
#include "traceroute/campaign_fixture.hpp"

namespace intertubes::traceroute {
namespace {

using isp::IspId;
using transport::CityId;

const L3Topology& topo() { return testing::shared_l3_topology(); }

TEST(L3Topology, RoutersMatchLinkEndpoints) {
  const auto& truth = testing::shared_scenario().truth();
  std::set<std::pair<IspId, CityId>> expected;
  for (const auto& link : truth.links()) {
    expected.insert({link.isp, link.a});
    expected.insert({link.isp, link.b});
  }
  EXPECT_EQ(topo().routers().size(), expected.size());
  for (const auto& r : topo().routers()) {
    EXPECT_TRUE(expected.count({r.isp, r.city}));
  }
}

TEST(L3Topology, RouterLookupConsistent) {
  for (RouterIdx r = 0; r < topo().routers().size(); r += 11) {
    const auto& router = topo().routers()[r];
    const auto found = topo().router_at(router.isp, router.city);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, r);
  }
  EXPECT_FALSE(topo().router_at(0, static_cast<CityId>(40000)).has_value());
}

TEST(L3Topology, RoutersInCityIndexed) {
  for (RouterIdx r = 0; r < topo().routers().size(); r += 23) {
    const auto& router = topo().routers()[r];
    const auto& in_city = topo().routers_in(router.city);
    EXPECT_TRUE(std::find(in_city.begin(), in_city.end(), r) != in_city.end());
  }
  EXPECT_TRUE(topo().routers_in(static_cast<CityId>(40000)).empty());
}

TEST(L3Topology, IntraIspEdgesCarryCorridors) {
  std::size_t intra = 0;
  std::size_t peering = 0;
  for (const auto& e : topo().edges()) {
    if (e.peering) {
      ++peering;
      EXPECT_TRUE(e.corridors.empty());
      EXPECT_EQ(e.length_km, 0.0);
      // Peering joins different ISPs in the same city.
      EXPECT_NE(topo().routers()[e.u].isp, topo().routers()[e.v].isp);
      EXPECT_EQ(topo().routers()[e.u].city, topo().routers()[e.v].city);
    } else {
      ++intra;
      EXPECT_FALSE(e.corridors.empty());
      EXPECT_GT(e.length_km, 0.0);
      EXPECT_EQ(topo().routers()[e.u].isp, topo().routers()[e.v].isp);
    }
  }
  EXPECT_GT(intra, 500u);
  EXPECT_GT(peering, 500u);
}

TEST(L3Topology, IntraEdgeCountEqualsTrueLinks) {
  std::size_t intra = 0;
  for (const auto& e : topo().edges()) {
    if (!e.peering) ++intra;
  }
  EXPECT_EQ(intra, testing::shared_scenario().truth().links().size());
}

TEST(L3Topology, TierOnePeeringNeedsMajorCity) {
  const auto& profiles = testing::shared_scenario().truth().profiles();
  const auto& cities = core::Scenario::cities();
  PeeringParams params;
  for (const auto& e : topo().edges()) {
    if (!e.peering) continue;
    const auto& ru = topo().routers()[e.u];
    const auto& rv = topo().routers()[e.v];
    const bool both_tier1 = profiles[ru.isp].kind == isp::IspKind::Tier1 &&
                            profiles[rv.isp].kind == isp::IspKind::Tier1;
    if (both_tier1) {
      EXPECT_GE(cities.city(ru.city).population, params.tier1_peering_min_pop);
    }
  }
}

TEST(L3Topology, RouteReachesDestinationCity) {
  const auto dst = core::Scenario::cities().find("Denver, CO");
  ASSERT_TRUE(dst.has_value());
  const auto route = topo().route(0, *dst);
  ASSERT_FALSE(route.empty());
  EXPECT_EQ(route.front(), 0u);
  EXPECT_EQ(topo().routers()[route.back()].city, *dst);
  // Consecutive routers joined by an edge.
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    bool joined = false;
    for (auto eid : topo().edges_at(route[i])) {
      const auto& e = topo().edges()[eid];
      if ((e.u == route[i] && e.v == route[i + 1]) || (e.v == route[i] && e.u == route[i + 1])) {
        joined = true;
        break;
      }
    }
    EXPECT_TRUE(joined);
  }
}

TEST(L3Topology, RouteToOwnCityIsTrivial) {
  const auto& router = topo().routers()[5];
  const auto route = topo().route(5, router.city);
  ASSERT_EQ(route.size(), 1u);
  EXPECT_EQ(route.front(), 5u);
}

TEST(L3Topology, RouteCorridorsConcatenated) {
  const auto dst = core::Scenario::cities().find("Atlanta, GA");
  ASSERT_TRUE(dst.has_value());
  const auto route = topo().route(3, *dst);
  ASSERT_GT(route.size(), 1u);
  const auto corridors = topo().route_corridors(route);
  // Total corridor count is the sum over intra-ISP hops.
  std::size_t expected = 0;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    for (auto eid : topo().edges_at(route[i])) {
      const auto& e = topo().edges()[eid];
      const RouterIdx other = (e.u == route[i]) ? e.v : e.u;
      if (other == route[i + 1]) {
        expected += e.corridors.size();
        break;
      }
    }
  }
  EXPECT_EQ(corridors.size(), expected);
}

TEST(L3Topology, HigherPeeringPenaltyFewerIspSwitches) {
  const auto src_city = core::Scenario::cities().find("Seattle, WA");
  const auto dst = core::Scenario::cities().find("Miami, FL");
  ASSERT_TRUE(src_city && dst);
  const auto& candidates = topo().routers_in(*src_city);
  ASSERT_FALSE(candidates.empty());
  const RouterIdx src = candidates.front();

  auto isp_switches = [&](const std::vector<RouterIdx>& route) {
    std::size_t switches = 0;
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
      if (topo().routers()[route[i]].isp != topo().routers()[route[i + 1]].isp) ++switches;
    }
    return switches;
  };
  PeeringParams cheap;
  cheap.peering_penalty_km = 10.0;
  PeeringParams expensive;
  expensive.peering_penalty_km = 5000.0;
  const auto loose = topo().route(src, *dst, cheap);
  const auto tight = topo().route(src, *dst, expensive);
  ASSERT_FALSE(loose.empty());
  ASSERT_FALSE(tight.empty());
  EXPECT_LE(isp_switches(tight), isp_switches(loose));
}

}  // namespace
}  // namespace intertubes::traceroute
