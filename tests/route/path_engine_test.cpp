#include "route/path_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "optimize/expansion.hpp"
#include "optimize/latency.hpp"
#include "optimize/robustness.hpp"
#include "risk/risk_matrix.hpp"
#include "test_support.hpp"
#include "transport/network.hpp"
#include "transport/row.hpp"

namespace intertubes::route {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Diamond with a decoy: 0-1 direct (heavy), 0-2-1 (cheap), 0-3-1 (dear).
PathEngine diamond() {
  return PathEngine(4,
                    {{0, 1, 10.0},   // e0
                     {0, 2, 4.0},    // e1
                     {2, 1, 4.0},    // e2
                     {0, 3, 5.0},    // e3
                     {3, 1, 5.0}});  // e4
}

TEST(PathEngine, ShortestPathPicksCheapDetour) {
  const auto engine = diamond();
  const auto path = engine.shortest_path(0, 1);
  ASSERT_TRUE(path.reachable);
  EXPECT_DOUBLE_EQ(path.cost, 8.0);
  EXPECT_EQ(path.edges, (std::vector<EdgeId>{1, 2}));
  EXPECT_EQ(path.nodes, (std::vector<NodeId>{0, 2, 1}));
}

TEST(PathEngine, FromEqualsToIsEmptyReachablePath) {
  const auto engine = diamond();
  const auto path = engine.shortest_path(2, 2);
  ASSERT_TRUE(path.reachable);
  EXPECT_EQ(path.cost, 0.0);
  EXPECT_TRUE(path.edges.empty());
  EXPECT_EQ(path.nodes, (std::vector<NodeId>{2}));
}

TEST(PathEngine, UnreachableReportsInfiniteCost) {
  const PathEngine engine(3, {{0, 1, 1.0}});  // node 2 isolated
  const auto path = engine.shortest_path(0, 2);
  EXPECT_FALSE(path.reachable);
  EXPECT_EQ(path.cost, kInf);
  EXPECT_TRUE(path.edges.empty());
  EXPECT_TRUE(path.nodes.empty());
}

TEST(PathEngine, TieBreakingPrefersLowestEdgeId) {
  // Two parallel edges, same weight: the lower id must win.
  const PathEngine parallel(2, {{0, 1, 5.0}, {0, 1, 5.0}});
  EXPECT_EQ(parallel.shortest_path(0, 1).edges, (std::vector<EdgeId>{0}));

  // Two equal-cost two-hop routes: the canonical winner is the one whose
  // final relaxing edge has the lower id (e2 over e4 here), regardless of
  // insertion order games.
  const PathEngine twin(4, {{0, 1, 99.0}, {0, 2, 5.0}, {2, 1, 5.0}, {0, 3, 5.0}, {3, 1, 5.0}});
  EXPECT_EQ(twin.shortest_path(0, 1).edges, (std::vector<EdgeId>{1, 2}));
}

TEST(PathEngine, EdgeMaskExcludesAndUnmasksBetweenQueries) {
  const auto engine = diamond();
  const std::vector<EdgeId> mask{1};  // sever the cheap detour's first leg
  Query query;
  query.masked = &mask;
  PathEngine::Workspace ws;
  const auto masked = engine.shortest_path(0, 1, query, ws);
  ASSERT_TRUE(masked.reachable);
  EXPECT_EQ(masked.edges, (std::vector<EdgeId>{0}));  // 0-3-1 costs 10 too; e0 wins the tie
  // Same workspace, no mask: the stamp from the previous query must not
  // leak (generation bump, not memset).
  const auto unmasked = engine.shortest_path(0, 1, {}, ws);
  EXPECT_EQ(unmasked.edges, (std::vector<EdgeId>{1, 2}));
}

TEST(PathEngine, MaskingEveryRouteMakesTargetUnreachable) {
  const auto engine = diamond();
  const std::vector<EdgeId> mask{0, 1, 3};  // cut every edge out of node 0
  Query query;
  query.masked = &mask;
  EXPECT_FALSE(engine.shortest_path(0, 1, query).reachable);
}

TEST(PathEngine, OverlayEdgeGetsIdBeyondBaseRange) {
  const auto engine = diamond();
  const std::vector<EdgeSpec> overlay{{0, 1, 1.0}};
  Query query;
  query.overlay = &overlay;
  const auto path = engine.shortest_path(0, 1, query);
  ASSERT_TRUE(path.reachable);
  EXPECT_DOUBLE_EQ(path.cost, 1.0);
  EXPECT_EQ(path.edges, (std::vector<EdgeId>{static_cast<EdgeId>(engine.num_edges())}));
  // The overlay is per-query: without it the base graph is unchanged.
  EXPECT_DOUBLE_EQ(engine.shortest_path(0, 1).cost, 8.0);
}

TEST(PathEngine, WeightOverrideForbidsWithInfinity) {
  const auto engine = diamond();
  const std::function<double(EdgeId)> forbid_detours = [](EdgeId id) {
    return id == 0 ? 10.0 : kInf;
  };
  Query query;
  query.weight_override = &forbid_detours;
  const auto path = engine.shortest_path(0, 1, query);
  ASSERT_TRUE(path.reachable);
  EXPECT_EQ(path.edges, (std::vector<EdgeId>{0}));
  EXPECT_DOUBLE_EQ(path.cost, 10.0);
}

TEST(PathEngine, DistancesFromMatchPerPairQueries) {
  const auto engine = diamond();
  const auto dist = engine.distances_from(0);
  ASSERT_EQ(dist.size(), engine.num_nodes());
  EXPECT_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[2], 4.0);
  EXPECT_DOUBLE_EQ(dist[3], 5.0);
  EXPECT_DOUBLE_EQ(dist[1], 8.0);
}

TEST(PathEngine, WorkspaceReuseIsStateless) {
  const auto engine = diamond();
  PathEngine::Workspace ws;
  const auto first = engine.shortest_path(0, 1, {}, ws);
  for (int i = 0; i < 100; ++i) {
    const auto again = engine.shortest_path(0, 1, {}, ws);
    ASSERT_EQ(again.edges, first.edges);
    ASSERT_EQ(again.cost, first.cost);
  }
}

// ---- scenario scale ----

TEST(RouteParallel, RowRegistryPathsUnchangedByEngineRewiring) {
  // The ROW registry now routes through the shared engine; spot-check the
  // structural contract on real data.
  const auto& row = testing::shared_scenario().row();
  const auto path = row.shortest_path(0, 1);
  if (!path.empty()) {
    EXPECT_EQ(path.cities.size(), path.corridors.size() + 1);
    EXPECT_EQ(path.cities.front(), 0u);
    EXPECT_EQ(path.cities.back(), 1u);
    double km = 0.0;
    for (auto cid : path.corridors) km += row.corridor(cid).length_km;
    EXPECT_DOUBLE_EQ(path.length_km, km);
  }
  const auto dist = row.distances_from(0);
  EXPECT_EQ(dist.size(), row.num_cities());
  EXPECT_EQ(dist[0], 0.0);
}

// ---- regression tests for the mitigation-layer fixes ----

// Corridor fixtures come from prop/generators — the shared builder used
// across the unit suites.
using prop::make_corridor;

TEST(RouteRegression, NetworkWideGainSeparatesBridgesFromOptimal) {
  // One bridge conduit (no alternative at all) and one genuinely optimal
  // pair of parallel conduits.  The bridge must land in `unreachable`, not
  // `already_optimal`.
  core::FiberMap map(3);
  const auto bridge =
      map.ensure_conduit(make_corridor(0, 0, 1, 100.0), core::Provenance::GeocodedMap);
  const auto twin_a =
      map.ensure_conduit(make_corridor(1, 1, 2, 80.0), core::Provenance::GeocodedMap);
  const auto twin_b =
      map.ensure_conduit(make_corridor(2, 1, 2, 90.0), core::Provenance::GeocodedMap);
  map.add_link(0, 0, 1, {bridge}, true);
  map.add_link(1, 0, 1, {bridge}, true);
  map.add_link(0, 1, 2, {twin_a}, true);
  map.add_link(1, 1, 2, {twin_b}, true);
  const auto matrix = risk::RiskMatrix::from_map(map);
  const auto gain = optimize::network_wide_gain(map, matrix, 1);
  EXPECT_EQ(gain.conduits_evaluated, 3u);
  EXPECT_EQ(gain.unreachable, 1u);  // the bridge
  // twin_a's alternative is twin_b (sharing 1 each, SRR 0) and vice versa:
  // genuinely already optimal.
  EXPECT_EQ(gain.already_optimal, 2u);
}

TEST(RouteRegression, NetworkWideGainScenarioAccounting) {
  const auto& map = testing::shared_scenario().map();
  const auto matrix = risk::RiskMatrix::from_map(map);
  const auto gain = optimize::network_wide_gain(map, matrix, 12);
  EXPECT_EQ(gain.conduits_evaluated, map.conduits().size());
  // Bridges exist in the seed world and must no longer masquerade as
  // optimal placements.
  EXPECT_GT(gain.unreachable, 0u);
  EXPECT_GT(gain.already_optimal, 0u);
  EXPECT_LT(gain.already_optimal + gain.unreachable, gain.conduits_evaluated);
}

TEST(RouteRegression, LatencyStudyExcludesRowUnreachablePairs) {
  // Two ROW islands: {0,1} and {2,3}.  A mapped link inside an island has
  // a ROW comparison; a link across islands does not and must be counted,
  // not folded into the fraction as "best is ROW".
  std::vector<transport::City> cities;
  for (int i = 0; i < 4; ++i) {
    transport::City city;
    city.name = "C" + std::to_string(i);
    city.state = "XX";
    city.location = {35.0 + i, -100.0 + i};
    city.population = 100000;
    cities.push_back(city);
  }
  const transport::CityDatabase db(cities);

  auto make_edge = [](transport::EdgeId id, transport::CityId a, transport::CityId b) {
    transport::TransportEdge e;
    e.id = id;
    e.a = a;
    e.b = b;
    e.mode = transport::TransportMode::Road;
    e.path = geo::Polyline::straight({35.0 + a, -100.0 + a}, {35.0 + b, -100.0 + b});
    e.length_km = e.path.length_km();
    return e;
  };
  transport::TransportBundle bundle{
      transport::TransportNetwork(transport::TransportMode::Road,
                                  {make_edge(0, 0, 1), make_edge(1, 2, 3)}, 4),
      transport::TransportNetwork(transport::TransportMode::Rail, {}, 4),
      transport::TransportNetwork(transport::TransportMode::Pipeline, {}, 4)};
  const transport::RightOfWayRegistry row(bundle);

  core::FiberMap map(2);
  const auto in_island =
      map.ensure_conduit(make_corridor(10, 0, 1, 120.0), core::Provenance::GeocodedMap);
  const auto cross =
      map.ensure_conduit(make_corridor(11, 0, 2, 150.0), core::Provenance::GeocodedMap);
  map.add_link(0, 0, 1, {in_island}, true);
  map.add_link(1, 0, 2, {cross}, true);

  const auto study = optimize::latency_study(map, db, row, 0.05);
  ASSERT_EQ(study.pairs.size(), 2u);
  EXPECT_EQ(study.row_unreachable, 1u);
  std::size_t reachable = 0;
  for (const auto& pair : study.pairs) {
    if (pair.row_reachable) {
      ++reachable;
    } else {
      EXPECT_EQ(pair.a, 0u);
      EXPECT_EQ(pair.b, 2u);
    }
  }
  EXPECT_EQ(reachable, 1u);
  // The fraction is over the single comparable pair only.  Its best path
  // rides the only corridor, so best == ROW there.
  EXPECT_DOUBLE_EQ(study.fraction_best_is_row, 1.0);
}

TEST(RouteRegression, ExpansionSurfacesUnreachableDemands) {
  // ISP 0 has one routable demand (0-1) and one demand whose endpoint
  // touches no conduit at all (0-5).  The old average silently dropped the
  // dead demand; now it must be reported and stay visible per step.
  core::FiberMap map(2);
  const auto spine =
      map.ensure_conduit(make_corridor(0, 0, 1, 100.0), core::Provenance::GeocodedMap);
  map.add_link(0, 0, 1, {spine}, true);
  map.add_link(1, 0, 1, {spine}, true);
  map.add_link(0, 0, 5, {spine}, true);  // fabricated dead demand

  transport::TransportBundle bundle{
      transport::TransportNetwork(transport::TransportMode::Road, {}, 6),
      transport::TransportNetwork(transport::TransportMode::Rail, {}, 6),
      transport::TransportNetwork(transport::TransportMode::Pipeline, {}, 6)};
  const transport::RightOfWayRegistry row(bundle);

  const auto result = optimize::optimize_expansion(map, row, 0, 3);
  EXPECT_EQ(result.unreachable_demands, 1u);
  ASSERT_EQ(result.steps.size(), 3u);
  for (const auto& step : result.steps) {
    // Adding conduits can only reconnect, never disconnect.
    EXPECT_LE(step.unreachable_demands, result.unreachable_demands);
  }
  // The reachable demand still averages over the spine it rides.
  EXPECT_DOUBLE_EQ(result.baseline_avg_shared_risk, 2.0);
}

}  // namespace
}  // namespace intertubes::route
