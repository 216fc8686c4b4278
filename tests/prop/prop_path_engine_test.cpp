// Differential properties of route::PathEngine against the naive
// Bellman-Ford reference, plus the mask/overlay/override "perturbation
// equals rebuild" contracts.  Weights are dyadic, so every cost comparison
// here is bitwise — no epsilons.
#include <gtest/gtest.h>

#include "oracles.hpp"
#include "prop/generators.hpp"
#include "prop/prop.hpp"
#include "prop/prop_gtest.hpp"

namespace intertubes::testing {
namespace {

using oracles::compare_paths;

TEST(PropPathEngine, CostsMatchBellmanFordReference) {
  EXPECT_PROP(prop::check<prop::GraphCase>("path_costs_vs_bellman_ford", prop::graph_cases(),
                                           oracles::path_reference_property()));
}

TEST(PropPathEngine, OverlayQueriesMatchRebuiltGraphBitwise) {
  EXPECT_PROP(prop::check<prop::GraphCase>("overlay_vs_rebuilt_graph", prop::graph_cases(),
                                           oracles::overlay_rebuild_property()));
}

TEST(PropPathEngine, WeightOverridesMatchRebuiltWeightsBitwise) {
  EXPECT_PROP(prop::check<prop::GraphCase>("override_vs_rebuilt_weights", prop::graph_cases(),
                                           oracles::override_rebuild_property()));
}

TEST(PropPathEngine, QueriesAreDeterministicAcrossEnginesAndRepeats) {
  // The documented contract: results are a pure function of (graph,
  // query).  Re-asking the same engine and asking an identically built
  // twin must agree bit for bit — the property every memoization and
  // parallel fan-out layer above leans on.
  const prop::Property<prop::GraphCase> property =
      [](const prop::GraphCase& c) -> std::optional<std::string> {
    const route::PathEngine engine(c.num_nodes, c.edges);
    const route::PathEngine twin(c.num_nodes, c.edges);
    route::Query query;
    if (!c.mask.empty()) query.masked = &c.mask;
    if (!c.overlay.empty()) query.overlay = &c.overlay;
    const auto first = engine.shortest_path(c.from, c.to, query);
    if (auto diff = compare_paths(engine.shortest_path(c.from, c.to, query), first, "repeat")) {
      return diff;
    }
    return compare_paths(twin.shortest_path(c.from, c.to, query), first, "twin engine");
  };
  EXPECT_PROP(prop::check<prop::GraphCase>("query_determinism", prop::graph_cases(), property));
}

TEST(PropPathEngine, TargetSearchMatchesPointQueriesAndForestRows) {
  EXPECT_PROP(prop::check<prop::GraphCase>("target_search_vs_point_queries", prop::graph_cases(),
                                           oracles::target_search_property()));
}

TEST(PropPathEngine, DistancesFromAgreesWithPerPairQueries) {
  const prop::Property<prop::GraphCase> property =
      [](const prop::GraphCase& c) -> std::optional<std::string> {
    const route::PathEngine engine(c.num_nodes, c.edges);
    route::Query query;
    if (!c.mask.empty()) query.masked = &c.mask;
    if (!c.overlay.empty()) query.overlay = &c.overlay;
    const auto dist = engine.distances_from(c.from, query);
    if (dist.size() != c.num_nodes) return "distances_from size mismatch";
    for (route::NodeId to = 0; to < c.num_nodes; ++to) {
      const auto path = engine.shortest_path(c.from, to, query);
      if (dist[to] != path.cost) {
        return "distances_from[" + std::to_string(to) + "] = " + std::to_string(dist[to]) +
               " but shortest_path cost = " + std::to_string(path.cost);
      }
    }
    return std::nullopt;
  };
  EXPECT_PROP(
      prop::check<prop::GraphCase>("distances_vs_pair_queries", prop::graph_cases(), property));
}

}  // namespace
}  // namespace intertubes::testing
