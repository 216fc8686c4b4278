// Differential properties of the cascade engine.
//
// Three families:
//   * determinism — the full campaign and percolation reports must be
//     bit-identical (operator== over every curve) between the serial path
//     and executors at 1, 2 and 8 threads, for random synthetic worlds.
//     This is the contract that makes the parallel fan-out free.
//   * the round oracle — run_cascade, which re-routes only the demands
//     that broke, must equal the all-demands reference round (oracle O10)
//     on random maps, weights, cuts, margins and round caps.
//   * structure oracles — evaluate_structure's giant component must match
//     an independent BFS over the conduit list, and the L3 metrics must
//     match an independent edge-resolution + BFS over the router graph of
//     the scenario world, for one cut set and for every overload round of
//     a cascade (oracle O11).  The engine's connectivity kernel never gets
//     to grade its own homework.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cascade/cascade.hpp"
#include "oracles.hpp"
#include "prop/generators.hpp"
#include "prop/prop.hpp"
#include "prop/prop_gtest.hpp"
#include "sim/executor.hpp"
#include "test_support.hpp"
#include "traceroute/l3_topology.hpp"

namespace intertubes::testing {
namespace {

using core::ConduitId;

const traceroute::L3Topology& scenario_l3() {
  static const traceroute::L3Topology topo = traceroute::L3Topology::from_ground_truth(
      shared_scenario().truth(), core::Scenario::cities());
  return topo;
}

/// Scenario-scale engine with the L3 topology attached, shared across
/// properties (construction compiles the conduit PathEngine once).
const cascade::CascadeEngine& scenario_engine() {
  static const cascade::CascadeEngine* engine =
      new cascade::CascadeEngine(shared_scenario().map(), &scenario_l3(),
                                 &core::Scenario::cities(), &shared_scenario().row());
  return *engine;
}

TEST(PropCascade, CampaignBitIdenticalAcrossThreadCounts) {
  static sim::Executor one(1);
  static sim::Executor two(2);
  static sim::Executor eight(8);
  const prop::Property<prop::MapSpec> property =
      [](const prop::MapSpec& spec) -> std::optional<std::string> {
    const auto map = prop::build_fiber_map(spec);
    const cascade::CascadeEngine engine(map);
    cascade::CascadeConfig config;
    config.stressor = sim::Stressor::random_cuts(3);
    config.params.capacity_margin = 0.05;
    config.params.max_rounds = 4;
    config.trials = 6;
    const auto serial = engine.run(config);
    for (sim::Executor* executor : {&one, &two, &eight}) {
      if (!(engine.run(config, executor) == serial)) {
        return "campaign report differs at " + std::to_string(executor->num_threads()) +
               " threads";
      }
    }
    return std::nullopt;
  };
  EXPECT_PROP(prop::check<prop::MapSpec>("cascade_campaign_thread_invariance",
                                         prop::fiber_maps(), property));
}

TEST(PropCascade, PercolationBitIdenticalAcrossThreadCounts) {
  static sim::Executor one(1);
  static sim::Executor eight(8);
  const prop::Property<prop::MapSpec> property =
      [](const prop::MapSpec& spec) -> std::optional<std::string> {
    const auto map = prop::build_fiber_map(spec);
    const cascade::CascadeEngine engine(map);
    cascade::PercolationConfig config;
    config.resolution = 5;
    config.trials = 4;
    // Targeted removal shares the deterministic most-shared-first order,
    // so it exercises a second adversary at no generator cost.
    config.adversary = sim::StressorKind::TargetedCuts;
    const auto serial = engine.percolation(config);
    for (sim::Executor* executor : {&one, &eight}) {
      if (!(engine.percolation(config, executor) == serial)) {
        return "percolation report differs at " + std::to_string(executor->num_threads()) +
               " threads";
      }
    }
    return std::nullopt;
  };
  EXPECT_PROP(prop::check<prop::MapSpec>("cascade_percolation_thread_invariance",
                                         prop::fiber_maps(), property));
}

TEST(PropCascade, RunCascadeMatchesAllDemandsReference) {
  EXPECT_PROP(prop::check<oracles::CascadeCase>("cascade_vs_all_demands_reference",
                                                oracles::cascade_cases(),
                                                oracles::cascade_reference_property()));
}

TEST(PropCascade, GiantComponentMatchesBruteForceBfs) {
  const prop::Property<prop::MapSpec> property =
      [](const prop::MapSpec& spec) -> std::optional<std::string> {
    const auto map = prop::build_fiber_map(spec);
    const cascade::CascadeEngine engine(map);
    const std::size_t num_conduits = map.conduits().size();
    // Deterministic cut families per world: none, every 2nd, every 3rd,
    // the first half, all — endpoints plus interior points of the lattice.
    for (std::size_t stride : {0u, 2u, 3u}) {
      std::vector<ConduitId> cuts;
      if (stride == 0) {
        for (ConduitId c = 0; c < num_conduits / 2; ++c) cuts.push_back(c);
      } else {
        for (ConduitId c = 0; c < num_conduits; c += stride) cuts.push_back(c);
      }
      std::vector<char> dead(num_conduits, 0);
      for (ConduitId c : cuts) dead[c] = 1;
      const auto metrics = engine.evaluate_structure(cuts);
      const double expected = oracles::brute_force_giant(map, dead);
      if (metrics.giant_component != expected) {
        return "giant component " + std::to_string(metrics.giant_component) +
               " vs brute force " + std::to_string(expected) + " (stride " +
               std::to_string(stride) + ")";
      }
      // Synthetic worlds carry no L3 topology: constants by contract.
      if (metrics.l3_edges_dead != 0.0 || metrics.l3_reachability != 1.0) {
        return "L3 metrics moved without an L3 topology";
      }
    }
    return std::nullopt;
  };
  EXPECT_PROP(prop::check<prop::MapSpec>("cascade_giant_vs_bfs", prop::fiber_maps(), property));
}

TEST(PropCascade, L3ReachabilityMatchesBruteForceOnScenario) {
  const auto& engine = scenario_engine();
  const auto& map = shared_scenario().map();
  const auto& l3 = scenario_l3();
  const std::size_t num_conduits = map.conduits().size();

  const prop::Property<std::vector<ConduitId>> property =
      [&](const std::vector<ConduitId>& cuts) -> std::optional<std::string> {
    std::vector<char> dead(num_conduits, 0);
    for (ConduitId c : cuts) dead[c] = 1;

    const auto expected = oracles::brute_force_l3(map, l3, dead);
    const double expected_dead = expected.edges_dead;
    const double expected_reach = expected.reachability;

    const auto metrics = engine.evaluate_structure(cuts);
    if (metrics.l3_edges_dead != expected_dead) {
      return "dead L3 edge fraction " + std::to_string(metrics.l3_edges_dead) +
             " vs brute force " + std::to_string(expected_dead);
    }
    // Both sides divide small integer pair counts, but accumulate over
    // components in different orders — allow rounding slack only.
    if (std::abs(metrics.l3_reachability - expected_reach) > 1e-12) {
      return "L3 reachability " + std::to_string(metrics.l3_reachability) + " vs brute force " +
             std::to_string(expected_reach);
    }
    return std::nullopt;
  };
  EXPECT_PROP(prop::check<std::vector<ConduitId>>(
      "cascade_l3_reachability_vs_bfs", prop::cut_sets(num_conduits, 48), property));
}

TEST(PropCascade, RoundStructureMatchesBruteForceOnScenario) {
  const auto& map = shared_scenario().map();
  EXPECT_PROP(prop::check<oracles::CascadeRoundCase>(
      "cascade_round_structure_vs_bfs", oracles::cascade_round_cases(map.conduits().size()),
      oracles::cascade_round_structure_property(scenario_engine(), map, scenario_l3())));
}

TEST(PropCascade, WhatIfCascadeIsAPureFunctionOfTheCutSet) {
  // Duplicates and order must not matter: run_cascade canonicalizes into
  // dead flags, so any permutation with repeats lands on the same outcome.
  const auto& engine = scenario_engine();
  const std::size_t num_conduits = shared_scenario().map().conduits().size();
  const prop::Property<std::vector<ConduitId>> property =
      [&](const std::vector<ConduitId>& cuts) -> std::optional<std::string> {
    if (cuts.empty()) return std::nullopt;
    cascade::CascadeParams params;
    params.max_rounds = 3;
    const auto canonical = engine.run_cascade(cuts, params);
    std::vector<ConduitId> shuffled(cuts.rbegin(), cuts.rend());
    shuffled.push_back(cuts.front());  // add a duplicate
    if (!(engine.run_cascade(shuffled, params) == canonical)) {
      return "outcome depends on cut-set presentation order";
    }
    return std::nullopt;
  };
  EXPECT_PROP(prop::check<std::vector<ConduitId>>(
      "cascade_outcome_cut_set_canonical", prop::cut_sets(num_conduits, 12), property));
}

}  // namespace
}  // namespace intertubes::testing
