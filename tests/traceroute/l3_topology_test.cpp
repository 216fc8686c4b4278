#include "traceroute/l3_topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

#include "test_support.hpp"
#include "traceroute/campaign.hpp"
#include "traceroute/campaign_fixture.hpp"
#include "util/rng.hpp"
#include "worldgen/worldgen.hpp"

namespace intertubes::traceroute {
namespace {

using isp::IspId;
using transport::CityId;
using transport::CorridorId;

const L3Topology& topo() { return testing::shared_l3_topology(); }

/// A route as a router sequence plus the edge that reached each router
/// after the first.
struct ReferenceRoute {
  std::vector<RouterIdx> routers;
  std::vector<std::uint32_t> edges;
};

/// The search L3Topology::route ran before routes_from: Dijkstra from
/// `src` that stops at the first router of `dst_city` to settle.  Beside
/// each router's predecessor it records the edge that set it.
ReferenceRoute reference_route(const L3Topology& topo, RouterIdx src, CityId dst_city,
                               const PeeringParams& params = {}) {
  const auto& routers = topo.routers();
  const auto& edges = topo.edges();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(routers.size(), kInf);
  std::vector<RouterIdx> prev(routers.size(), kNoRouter);
  std::vector<std::uint32_t> prev_edge(routers.size(), 0);
  using Entry = std::pair<double, RouterIdx>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  dist[src] = 0.0;
  queue.push({0.0, src});
  RouterIdx goal = kNoRouter;
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;
    if (routers[u].city == dst_city) {
      goal = u;
      break;
    }
    for (std::uint32_t eid : topo.edges_at(u)) {
      const auto& e = edges[eid];
      const RouterIdx v = (e.u == u) ? e.v : e.u;
      const double w = e.peering ? params.peering_penalty_km : e.length_km;
      const double nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        prev[v] = u;
        prev_edge[v] = eid;
        queue.push({nd, v});
      }
    }
  }
  ReferenceRoute out;
  if (goal == kNoRouter) return out;
  for (RouterIdx cur = goal; cur != kNoRouter; cur = prev[cur]) {
    out.routers.push_back(cur);
    if (prev[cur] != kNoRouter) out.edges.push_back(prev_edge[cur]);
  }
  std::reverse(out.routers.begin(), out.routers.end());
  std::reverse(out.edges.begin(), out.edges.end());
  return out;
}

/// The corridors under a reference route, each edge's list oriented along
/// the route.
std::vector<CorridorId> reference_corridors(const L3Topology& topo, const ReferenceRoute& ref) {
  std::vector<CorridorId> out;
  for (std::size_t i = 0; i < ref.edges.size(); ++i) {
    const auto& e = topo.edges()[ref.edges[i]];
    if (e.u == ref.routers[i]) {
      out.insert(out.end(), e.corridors.begin(), e.corridors.end());
    } else {
      out.insert(out.end(), e.corridors.rbegin(), e.corridors.rend());
    }
  }
  return out;
}

/// Compare one search toward `targets` with a reference search per target,
/// router for router and corridor for corridor.  Returns the pairs compared.
std::size_t expect_matches_reference(const L3Topology& topo, RouterIdx src,
                                     const std::vector<CityId>& targets,
                                     const PeeringParams& params = {}) {
  const auto routes = topo.routes_from(src, targets, params);
  for (const CityId city : targets) {
    const auto ref = reference_route(topo, src, city, params);
    EXPECT_EQ(routes.route(city), ref.routers) << "router " << src << " to city " << city;
    EXPECT_EQ(routes.corridors(city), reference_corridors(topo, ref))
        << "router " << src << " to city " << city;
  }
  return targets.size();
}

/// Cities that host at least one router, in id order.
std::vector<CityId> router_cities(const L3Topology& topo, const transport::CityDatabase& cities) {
  std::vector<CityId> out;
  for (CityId c = 0; c < cities.size(); ++c) {
    if (!topo.routers_in(c).empty()) out.push_back(c);
  }
  return out;
}

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
  const CityId targets[] = {*dst};
  const auto routes = topo().routes_from(3, targets);
  const auto route = routes.route(*dst);
  ASSERT_GT(route.size(), 1u);
  const auto corridors = routes.corridors(*dst);
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

TEST(L3RoutesFrom, MatchesEarlyExitSearchOnPaperWorld) {
  // Every router toward a stride of the cities that host routers.
  const auto all = router_cities(topo(), core::Scenario::cities());
  std::vector<CityId> targets;
  for (std::size_t i = 0; i < all.size(); i += 37) targets.push_back(all[i]);
  std::size_t pairs = 0;
  for (RouterIdx src = 0; src < topo().routers().size(); ++src) {
    pairs += expect_matches_reference(topo(), src, targets);
  }
  EXPECT_GT(pairs, 3000u);
}

TEST(L3RoutesFrom, MatchesEarlyExitSearchOnScale2World) {
  // A stride of source routers toward every city that hosts one: each
  // search runs until (nearly) the whole graph has settled.
  worldgen::WorldSpec spec;
  spec.scale = 2.0;
  const auto world = worldgen::generate_world(spec);
  const auto l3 = L3Topology::from_ground_truth(world.truth(), world.cities());
  const auto targets = router_cities(l3, world.cities());
  std::size_t pairs = 0;
  for (RouterIdx src = 0; src < l3.routers().size(); src += 307) {
    pairs += expect_matches_reference(l3, src, targets);
  }
  EXPECT_GT(pairs, 1500u);
}

TEST(L3RoutesFrom, MatchesEarlyExitSearchOnRandomTargetSets) {
  // Random sources toward random multi-city sets, which may repeat a city,
  // name the source's own city, or name a city without routers, under
  // peering penalties from free (zero-weight edges) to prohibitive.
  const auto& cities = core::Scenario::cities();
  const double penalties[] = {0.0, 10.0, 350.0, 5000.0};
  Rng rng(0x5e7);
  std::size_t pairs = 0;
  for (int trial = 0; trial < 200; ++trial) {
    PeeringParams params;
    params.peering_penalty_km = penalties[trial % 4];
    const auto src = static_cast<RouterIdx>(rng.next_below(topo().routers().size()));
    std::vector<CityId> targets;
    const auto k = 1 + rng.next_below(12);
    for (std::uint64_t i = 0; i < k; ++i) {
      targets.push_back(static_cast<CityId>(rng.next_below(cities.size())));
    }
    if (trial % 3 == 0) targets.push_back(topo().routers()[src].city);
    if (trial % 5 == 0) targets.push_back(targets.front());
    pairs += expect_matches_reference(topo(), src, targets, params);
  }
  EXPECT_GT(pairs, 1000u);
}

TEST(L3RoutesFrom, UnreachableAndUnrequestedCitiesHaveNoRoute) {
  const RouterIdx src = 7;
  const auto own = topo().routers()[src].city;
  const CityId targets[] = {own, static_cast<CityId>(40000)};
  const auto routes = topo().routes_from(src, targets);
  EXPECT_EQ(routes.route(own), std::vector<RouterIdx>{src});
  EXPECT_TRUE(routes.corridors(own).empty());
  EXPECT_TRUE(routes.route(40000).empty());
  const auto denver = core::Scenario::cities().find("Denver, CO");
  ASSERT_TRUE(denver.has_value());
  EXPECT_TRUE(routes.route(*denver).empty());
}

/// One ISP with two links between the same two cities, the longer listed
/// first (so its edge comes first in both routers' adjacency).
isp::GroundTruth parallel_link_truth() {
  std::vector<isp::TrueLink> links = {
      {0, 0, 1, {0, 1}, 200.0},
      {0, 0, 1, {2, 3}, 150.0},
  };
  return isp::GroundTruth({isp::default_profiles()[0]}, {{0, 1}}, std::move(links), 4);
}

TEST(L3Topology, ParallelLinksRouteOverTheShorterLinksCorridors) {
  const auto truth = parallel_link_truth();
  const auto l3 = L3Topology::from_ground_truth(truth, core::Scenario::cities());
  const auto a = l3.router_at(0, 0);
  const auto b = l3.router_at(0, 1);
  ASSERT_TRUE(a && b);
  const CityId to_b[] = {1};
  const CityId to_a[] = {0};
  EXPECT_EQ(l3.routes_from(*a, to_b).route(1), (std::vector<RouterIdx>{*a, *b}));
  EXPECT_EQ(l3.routes_from(*a, to_b).corridors(1), (std::vector<CorridorId>{2, 3}));
  EXPECT_EQ(l3.routes_from(*b, to_a).corridors(0), (std::vector<CorridorId>{3, 2}));
}

TEST(L3Topology, CampaignCorridorsFollowTheShorterParallelLink) {
  const auto truth = parallel_link_truth();
  const auto& cities = core::Scenario::cities();
  const auto l3 = L3Topology::from_ground_truth(truth, cities);
  CampaignParams params;
  params.num_probes = 50;
  const auto campaign = run_campaign(l3, cities, params);
  ASSERT_EQ(campaign.flows.size(), 2u);
  const std::vector<CorridorId> forward{2, 3};
  const std::vector<CorridorId> backward{3, 2};
  for (const auto& flow : campaign.flows) {
    EXPECT_EQ(flow.true_corridors, flow.src == 0 ? forward : backward);
  }
}

}  // namespace
}  // namespace intertubes::traceroute
