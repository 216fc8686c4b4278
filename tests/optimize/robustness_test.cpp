#include "optimize/robustness.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_support.hpp"

namespace intertubes::optimize {
namespace {

using core::ConduitId;
using core::FiberMap;
using core::Provenance;
using isp::IspId;

transport::Corridor make_corridor(transport::CorridorId id, transport::CityId a,
                                  transport::CityId b, double km) {
  transport::Corridor c;
  c.id = id;
  c.a = a;
  c.b = b;
  c.path = geo::Polyline::straight({40.0, -100.0 + 0.01 * id}, {40.0, -99.0 + 0.01 * id});
  c.length_km = km;
  return c;
}

/// Diamond: cities 0-1 joined directly by a crowded conduit, and around
/// the top via city 2 by two quiet ones.
struct Diamond {
  FiberMap map{4};
  ConduitId crowded;
  ConduitId quiet1;
  ConduitId quiet2;

  Diamond() {
    crowded = map.ensure_conduit(make_corridor(0, 0, 1, 100.0), Provenance::GeocodedMap);
    quiet1 = map.ensure_conduit(make_corridor(1, 0, 2, 80.0), Provenance::GeocodedMap);
    quiet2 = map.ensure_conduit(make_corridor(2, 2, 1, 80.0), Provenance::GeocodedMap);
    // Four ISPs in the crowded tube; ISP 3 also owns the quiet detour.
    map.add_link(0, 0, 1, {crowded}, true);
    map.add_link(1, 0, 1, {crowded}, true);
    map.add_link(2, 0, 1, {crowded}, true);
    map.add_link(3, 0, 1, {crowded}, true);
    map.add_link(3, 0, 1, {quiet1, quiet2}, true);
  }
};

TEST(SuggestReroute, FindsQuietDetour) {
  Diamond d;
  const auto matrix = risk::RiskMatrix::from_map(d.map);
  const auto s = suggest_reroute(d.map, matrix, d.crowded, 0);
  ASSERT_EQ(s.optimized_path.size(), 2u);
  EXPECT_EQ(s.optimized_path[0], d.quiet1);
  EXPECT_EQ(s.optimized_path[1], d.quiet2);
  EXPECT_EQ(s.path_inflation, 1);          // 2 hops vs 1
  EXPECT_EQ(s.shared_risk_reduction, 3);   // 4 tenants -> worst 1 tenant
}

TEST(SuggestReroute, NoAlternativeReturnsEmpty) {
  FiberMap map(2);
  const ConduitId only =
      map.ensure_conduit(make_corridor(0, 0, 1, 100.0), Provenance::GeocodedMap);
  map.add_link(0, 0, 1, {only}, true);
  map.add_link(1, 0, 1, {only}, true);
  const auto matrix = risk::RiskMatrix::from_map(map);
  const auto s = suggest_reroute(map, matrix, only, 0);
  EXPECT_TRUE(s.optimized_path.empty());
  EXPECT_EQ(s.path_inflation, 0);
  EXPECT_EQ(s.shared_risk_reduction, 0);
}

TEST(SuggestReroute, PrefersLowRiskOverShortLength) {
  // Two detours: a short one through a crowded conduit, a long quiet one.
  FiberMap map(5);
  const ConduitId target = map.ensure_conduit(make_corridor(0, 0, 1, 10.0), Provenance::GeocodedMap);
  const ConduitId busy_a = map.ensure_conduit(make_corridor(1, 0, 2, 10.0), Provenance::GeocodedMap);
  const ConduitId busy_b = map.ensure_conduit(make_corridor(2, 2, 1, 10.0), Provenance::GeocodedMap);
  const ConduitId quiet_a = map.ensure_conduit(make_corridor(3, 0, 3, 500.0), Provenance::GeocodedMap);
  const ConduitId quiet_b = map.ensure_conduit(make_corridor(4, 3, 1, 500.0), Provenance::GeocodedMap);
  for (IspId isp = 0; isp < 4; ++isp) {
    map.add_link(isp, 0, 1, {target}, true);
    map.add_link(isp, 0, 1, {busy_a, busy_b}, true);
  }
  map.add_link(4, 0, 1, {quiet_a, quiet_b}, true);
  const auto matrix = risk::RiskMatrix::from_map(map);
  const auto s = suggest_reroute(map, matrix, target, 0);
  ASSERT_EQ(s.optimized_path.size(), 2u);
  EXPECT_EQ(s.optimized_path[0], quiet_a);
  EXPECT_EQ(s.optimized_path[1], quiet_b);
}

TEST(SummarizeRobustness, DiamondAggregates) {
  Diamond d;
  const auto matrix = risk::RiskMatrix::from_map(d.map);
  const auto summaries = summarize_robustness(d.map, matrix, {d.crowded});
  ASSERT_EQ(summaries.size(), 4u);
  for (const auto& s : summaries) {
    EXPECT_EQ(s.targets_using, 1u);  // every ISP rides the crowded conduit
    EXPECT_EQ(s.pi_avg, 1.0);
    EXPECT_EQ(s.srr_avg, 3.0);
    EXPECT_EQ(s.pi_min, s.pi_max);
  }
}

TEST(SummarizeRobustness, SkipsIspsNotUsingTargets) {
  Diamond d;
  const auto matrix = risk::RiskMatrix::from_map(d.map);
  // quiet1 is used only by ISP 3.
  const auto summaries = summarize_robustness(d.map, matrix, {d.quiet1});
  EXPECT_EQ(summaries[0].targets_using, 0u);
  EXPECT_EQ(summaries[3].targets_using, 1u);
}

TEST(SuggestPeering, CreditsDetourOwners) {
  Diamond d;
  const auto matrix = risk::RiskMatrix::from_map(d.map);
  const auto peering = suggest_peering(d.map, matrix, {d.crowded}, 3);
  ASSERT_EQ(peering.size(), 4u);
  // For ISPs 0..2, the detour is owned solely by ISP 3 — the only useful
  // peer.
  for (IspId isp = 0; isp < 3; ++isp) {
    ASSERT_FALSE(peering[isp].suggested.empty());
    EXPECT_EQ(peering[isp].suggested.front(), 3u);
  }
  // ISP 3 already owns the detour; nothing new to lean on.
  EXPECT_TRUE(peering[3].suggested.empty());
}

// ---- scenario-scale properties ----

TEST(RobustnessScenario, TwelveTargetsMostlyImprovable) {
  const auto& map = testing::shared_scenario().map();
  const auto matrix = risk::RiskMatrix::from_map(map);
  const auto targets = matrix.most_shared_conduits(12);
  const auto summaries = summarize_robustness(map, matrix, targets);
  // §5.1: one-to-two extra hops buy large shared-risk reductions.
  double total_pi = 0.0;
  double total_srr = 0.0;
  std::size_t n = 0;
  for (const auto& s : summaries) {
    if (s.targets_using == 0) continue;
    total_pi += s.pi_avg;
    total_srr += s.srr_avg;
    ++n;
  }
  ASSERT_GT(n, 10u);
  EXPECT_LT(total_pi / static_cast<double>(n), 4.0);
  EXPECT_GT(total_srr / static_cast<double>(n), 4.0);
}

TEST(RobustnessScenario, PeeringSuggestionsFavorFacilitiesOwners) {
  // Table 5: Level 3 / AT&T / CenturyLink dominate the suggestions.
  const auto& map = testing::shared_scenario().map();
  const auto& profiles = testing::shared_scenario().truth().profiles();
  const auto matrix = risk::RiskMatrix::from_map(map);
  const auto targets = matrix.most_shared_conduits(12);
  const auto peering = suggest_peering(map, matrix, targets, 3);
  std::vector<std::size_t> counts(profiles.size(), 0);
  for (const auto& p : peering) {
    for (IspId suggested : p.suggested) ++counts[suggested];
  }
  const auto top =
      static_cast<IspId>(std::max_element(counts.begin(), counts.end()) - counts.begin());
  const std::string top_name = profiles[top].name;
  EXPECT_TRUE(top_name == "Level 3" || top_name == "CenturyLink" || top_name == "AT&T" ||
              top_name == "EarthLink")
      << top_name;
}

TEST(RobustnessScenario, NetworkWideGainConcentratedInTopTargets) {
  // §5.1: optimizing all conduits yields minimal extra gain over the
  // twelve most shared ones; many existing paths are already optimal.
  const auto& map = testing::shared_scenario().map();
  const auto matrix = risk::RiskMatrix::from_map(map);
  const auto gain = optimize::network_wide_gain(map, matrix, 12);
  EXPECT_EQ(gain.conduits_evaluated, map.conduits().size());
  EXPECT_GT(gain.avg_srr_top, gain.avg_srr_rest);
  // A meaningful fraction of conduits has no better alternative at all.
  EXPECT_GT(gain.already_optimal, map.conduits().size() / 20);
}

TEST(RobustnessScenario, ForestMemoMatchesMaskedPointQueries) {
  // The Fig 10 reroutes against the masked-query reference: the planner's
  // route-around paths must agree with an independently rebuilt
  // risk-weighted PathEngine — bit-identical edges, not just equal cost.
  const auto& map = testing::shared_scenario().map();
  const auto matrix = risk::RiskMatrix::from_map(map);
  const RobustnessPlanner planner(map, matrix);
  const auto targets = matrix.most_shared_conduits(16);

  std::vector<std::vector<ConduitId>> cold;
  for (ConduitId target : targets) {
    cold.push_back(planner.suggest_reroute(target, 0).optimized_path);
  }

  // Independent oracle: same weighting recipe, fresh engine, one masked
  // Dijkstra per target.
  route::NodeId num_nodes = 0;
  std::vector<route::EdgeSpec> edges;
  edges.reserve(map.conduits().size());
  for (const auto& c : map.conduits()) {
    num_nodes = std::max(num_nodes, std::max(c.a, c.b) + 1);
    edges.push_back(
        {c.a, c.b, static_cast<double>(matrix.sharing_count(c.id)) + 1e-4 * c.length_km});
  }
  const route::PathEngine oracle(num_nodes, std::move(edges));
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto& conduit = map.conduit(targets[i]);
    const std::vector<route::EdgeId> mask{targets[i]};
    route::Query query;
    query.masked = &mask;
    const auto path = oracle.shortest_path(conduit.a, conduit.b, query);
    if (!path.reachable) {
      EXPECT_TRUE(cold[i].empty()) << "planner found a path the oracle says is unreachable";
      continue;
    }
    EXPECT_EQ(cold[i], std::vector<ConduitId>(path.edges.begin(), path.edges.end()))
        << "planner path diverged from the masked oracle for target " << targets[i];
  }
}

TEST(RobustnessScenario, SuggestionsNeverRouteThroughTarget) {
  const auto& map = testing::shared_scenario().map();
  const auto matrix = risk::RiskMatrix::from_map(map);
  for (ConduitId target : matrix.most_shared_conduits(5)) {
    const auto s = suggest_reroute(map, matrix, target, 0);
    for (ConduitId cid : s.optimized_path) {
      EXPECT_NE(cid, target);
    }
  }
}

}  // namespace
}  // namespace intertubes::optimize
