// Differential properties of the batched many-to-many layer
// (route::PathEngine::distance_rows): every row must be bitwise identical
// to the per-pair/per-source queries it replaces, under masks and
// overlays, for any thread count.  Weights are dyadic (prop::graph_cases),
// so all comparisons are exact — no epsilons.
#include <gtest/gtest.h>

#include "prop/generators.hpp"
#include "prop/prop.hpp"
#include "prop/prop_gtest.hpp"
#include "route/path_engine.hpp"
#include "sim/executor.hpp"

namespace intertubes::testing {
namespace {

std::vector<route::NodeId> all_nodes(const prop::GraphCase& c) {
  std::vector<route::NodeId> nodes(c.num_nodes);
  for (route::NodeId n = 0; n < c.num_nodes; ++n) nodes[n] = n;
  return nodes;
}

route::Query query_of(const prop::GraphCase& c) {
  route::Query query;
  if (!c.mask.empty()) query.masked = &c.mask;
  if (!c.overlay.empty()) query.overlay = &c.overlay;
  return query;
}

TEST(PropDissect, DistanceRowsMatchPerSourceQueriesBitwise) {
  // The batched sweep is the same row primitive, just batched: row i must
  // equal distances_from(sources[i]) cell for cell, including the mask
  // and overlay perturbations.
  const prop::Property<prop::GraphCase> property =
      [](const prop::GraphCase& c) -> std::optional<std::string> {
    const route::PathEngine engine(c.num_nodes, c.edges);
    const auto sources = all_nodes(c);
    const auto query = query_of(c);
    const auto rows = engine.distance_rows(sources, query);
    if (rows.num_sources != sources.size() || rows.stride != c.num_nodes) {
      return "distance_rows shape mismatch";
    }
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto reference = engine.distances_from(sources[i], query);
      for (route::NodeId to = 0; to < c.num_nodes; ++to) {
        if (rows.at(i, to) != reference[to]) {
          return "row " + std::to_string(i) + " cell " + std::to_string(to) + ": batched " +
                 std::to_string(rows.at(i, to)) + " vs per-source " +
                 std::to_string(reference[to]);
        }
      }
    }
    return std::nullopt;
  };
  EXPECT_PROP(
      prop::check<prop::GraphCase>("distance_rows_vs_per_source", prop::graph_cases(), property));
}

TEST(PropDissect, DistanceRowsMatchPerPairShortestPathsBitwise) {
  // The stronger form of the batching claim: one row per source replaces
  // one point-to-point Dijkstra per pair with no numeric drift at all.
  const prop::Property<prop::GraphCase> property =
      [](const prop::GraphCase& c) -> std::optional<std::string> {
    const route::PathEngine engine(c.num_nodes, c.edges);
    const auto sources = all_nodes(c);
    const auto query = query_of(c);
    const auto rows = engine.distance_rows(sources, query);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      for (route::NodeId to = 0; to < c.num_nodes; ++to) {
        const auto path = engine.shortest_path(sources[i], to, query);
        if (rows.at(i, to) != path.cost) {
          return "pair (" + std::to_string(i) + ", " + std::to_string(to) + "): batched " +
                 std::to_string(rows.at(i, to)) + " vs shortest_path " +
                 std::to_string(path.cost);
        }
      }
    }
    return std::nullopt;
  };
  EXPECT_PROP(
      prop::check<prop::GraphCase>("distance_rows_vs_pair_queries", prop::graph_cases(), property));
}

TEST(PropDissect, DistanceRowsThreadCountInvariant) {
  // Serial (no executor), one worker, and four workers must produce the
  // same cells bit for bit — the determinism contract the parallel
  // all-pairs sweep rides on.
  static sim::Executor one(1);
  static sim::Executor four(4);
  const prop::Property<prop::GraphCase> property =
      [](const prop::GraphCase& c) -> std::optional<std::string> {
    const route::PathEngine engine(c.num_nodes, c.edges);
    const auto sources = all_nodes(c);
    const auto query = query_of(c);
    const auto serial = engine.distance_rows(sources, query);
    for (sim::Executor* executor : {&one, &four}) {
      const auto parallel = engine.distance_rows(sources, query, executor);
      if (parallel.cells != serial.cells) {
        return "cells differ at " + std::to_string(executor->num_threads()) + " threads";
      }
    }
    return std::nullopt;
  };
  EXPECT_PROP(
      prop::check<prop::GraphCase>("distance_rows_thread_invariance", prop::graph_cases(),
                                   property));
}

TEST(PropDissect, DistanceRowsOverlayMatchesRebuiltGraphBitwise) {
  // An overlay passed to the batched sweep must equal rebuilding the
  // graph with those edges baked in (the rebuild the gap optimizer does
  // when it commits a winning corridor).
  const prop::Property<prop::GraphCase> property =
      [](const prop::GraphCase& c) -> std::optional<std::string> {
    if (c.overlay.empty()) return std::nullopt;
    const route::PathEngine engine(c.num_nodes, c.edges);
    const auto sources = all_nodes(c);
    route::Query query;
    query.overlay = &c.overlay;
    const auto overlaid = engine.distance_rows(sources, query);

    auto edges = c.edges;
    edges.insert(edges.end(), c.overlay.begin(), c.overlay.end());
    const route::PathEngine rebuilt(c.num_nodes, edges);
    const auto baked = rebuilt.distance_rows(sources);
    if (overlaid.cells != baked.cells) return "overlay rows differ from rebuilt-graph rows";
    return std::nullopt;
  };
  EXPECT_PROP(prop::check<prop::GraphCase>("distance_rows_overlay_vs_rebuild",
                                           prop::graph_cases(), property));
}

}  // namespace
}  // namespace intertubes::testing
