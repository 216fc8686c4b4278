// The differential-oracle catalog.
//
// Each oracle is a prop::Property comparing a subject (the optimized
// engine under test) against an independent reference (a naive
// re-implementation or a from-scratch recomputation).  Every oracle takes
// a Fault parameter: Fault::None is the real test; the other values each
// inject ONE deliberate defect into the subject or reference so the
// mutation-smoke suite can prove the oracle is actually capable of
// failing.  A comparison that cannot fail is not an oracle.
//
// Catalog:
//   O1 path_reference_property   — PathEngine vs naive Bellman-Ford: min
//      cost bitwise equal (dyadic weights make sums exact), and the
//      returned path is structurally valid under mask/overlay semantics.
//   O2 overlay_rebuild_property  — query-time overlay edges vs a rebuilt
//      engine with the overlay appended: bit-identical paths (the
//      value-based tie-break contract).
//   O3 override_rebuild_property — weight_override vs a rebuilt engine
//      carrying the overridden weights: bit-identical paths.
//   O4 planner_reroute_property  — RobustnessPlanner::suggest_reroute vs a
//      masked shortest_path on a separately compiled engine: identical
//      edge lists for every conduit.
//   O5 campaign_bit_identity_property — sim::CampaignEngine on Executor(1)
//      vs Executor(4): byte-identical CampaignReport.
//   (O6 is retired: the robustness planner has no parallel overloads
//      left to compare with its serial runs.)
//   O7 whatif_cut_property       — serve::Snapshot::with_conduits_cut vs
//      hand-computed survivor tenancy / severed-link accounting.
//   O8 ingest_equivalence_property — strict vs lenient parse of a clean
//      serialized dataset: same bytes out, zero diagnostics.
//   O9 target_search_property    — PathEngine::search_targets vs
//      shortest_path per target and the route_forest row: bit-identical
//      distances and edge paths, with repeated, source and unreachable
//      targets; an empty target set settles the whole row.
//   O10 cascade_reference_property — CascadeEngine::run_cascade vs the
//      all-demands reference round (every cut demand re-routed from a
//      full route_forest row, every round): identical CascadeOutcome on
//      generated maps with random demand weights, cuts, margins and
//      round caps.
//   O11 reverse_pass_property / cascade_round_structure_property — the
//      reverse union-find pass (util/connectivity.hpp) vs the per-step
//      forward DFS it replaced: every step of a campaign trial, and the
//      connectivity and components means of CampaignEngine::run under
//      random and targeted cuts, bit-identical on generated maps with
//      repeated ids, empty steps, isolated nodes, parallel conduits and
//      0- and 1-node maps; and every cascade round's giant component and
//      L3 metrics equal to brute-force BFS over that round's dead set on
//      the scenario world with its L3 topology.
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cascade/cascade.hpp"
#include "core/dataset_io.hpp"
#include "optimize/robustness.hpp"
#include "prop/generators.hpp"
#include "prop/prop.hpp"
#include "risk/risk_matrix.hpp"
#include "route/path_engine.hpp"
#include "serve/snapshot.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"
#include "test_support.hpp"
#include "traceroute/l3_topology.hpp"
#include "util/diag.hpp"
#include "util/rng.hpp"

namespace intertubes::testing::oracles {

/// One base snapshot of the shared scenario, built lazily and reused by
/// the serve oracle and the mutation-smoke suite.  The scenario is wrapped
/// in a non-owning aliasing shared_ptr — its lifetime is the process.
inline const serve::Snapshot& shared_base_snapshot() {
  static const std::shared_ptr<serve::Snapshot> snap = serve::Snapshot::build(
      std::shared_ptr<const core::Scenario>(std::shared_ptr<const core::Scenario>{},
                                            &shared_scenario()));
  return *snap;
}

enum class Fault {
  None,
  SubjectCostOff,          ///< O1: nudge the engine's reported cost
  ReferenceIgnoresMask,    ///< O1: reference routes through masked edges
  RebuildDropsOverlay,     ///< O2: rebuilt engine omits the last overlay edge
  OverrideLeaksBaseWeight, ///< O3: rebuilt engine keeps one base weight
  RerouteReferenceIgnoresMask, ///< O4: reference reroute keeps the target conduit
  TamperSerialReport,      ///< O5: perturb one point of the serial report
  MiscountSeveredLinks,    ///< O7: off-by-one severed-link expectation
  CorruptDatasetLine,      ///< O8: append a malformed record to the input
  SearchDropsTarget,       ///< O9: the search is not told about one target
  ReferenceKeepsFirstReroute, ///< O10: reference never re-routes a re-routed demand
  ReferenceKillsRepeatLate, ///< O11: reference applies a repeated id at its last step
};

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// --- O1: naive reference ----------------------------------------------

/// One edge of the effective graph a query runs on: base edges minus the
/// mask, plus overlay edges with ids starting at base size.
struct EffectiveEdge {
  route::NodeId a = 0;
  route::NodeId b = 0;
  double weight = 0.0;
  route::EdgeId id = route::kNoEdge;
};

inline std::vector<EffectiveEdge> effective_edges(const prop::GraphCase& c, bool ignore_mask,
                                                  bool drop_last_overlay) {
  std::vector<EffectiveEdge> out;
  for (std::size_t i = 0; i < c.edges.size(); ++i) {
    const auto id = static_cast<route::EdgeId>(i);
    if (!ignore_mask && std::binary_search(c.mask.begin(), c.mask.end(), id)) continue;
    out.push_back({c.edges[i].a, c.edges[i].b, c.edges[i].weight, id});
  }
  const std::size_t overlays = c.overlay.size() - (drop_last_overlay && !c.overlay.empty());
  for (std::size_t i = 0; i < overlays; ++i) {
    out.push_back({c.overlay[i].a, c.overlay[i].b, c.overlay[i].weight,
                   static_cast<route::EdgeId>(c.edges.size() + i)});
  }
  return out;
}

/// Naive Bellman-Ford over an explicit edge list: relax every edge until a
/// full pass changes nothing.  Deliberately structured nothing like the
/// engine's CSR Dijkstra — that independence is what makes it an oracle.
inline std::vector<double> bellman_ford(route::NodeId num_nodes,
                                        const std::vector<EffectiveEdge>& edges,
                                        route::NodeId from) {
  std::vector<double> dist(num_nodes, kInfinity);
  dist[from] = 0.0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& e : edges) {
      if (dist[e.a] + e.weight < dist[e.b]) {
        dist[e.b] = dist[e.a] + e.weight;
        changed = true;
      }
      if (dist[e.b] + e.weight < dist[e.a]) {
        dist[e.a] = dist[e.b] + e.weight;
        changed = true;
      }
    }
  }
  return dist;
}

/// Structural validity of an engine path under the case's query: endpoint
/// chain, only effective edges, cost equal to the left-to-right weight
/// sum (exact with dyadic weights).
inline std::optional<std::string> validate_path(const prop::GraphCase& c,
                                                const route::Path& path) {
  const auto effective = effective_edges(c, /*ignore_mask=*/false, /*drop_last_overlay=*/false);
  if (!path.reachable) {
    if (!path.edges.empty() || !path.nodes.empty() || path.cost != kInfinity) {
      return "unreachable path carries edges/nodes/finite cost";
    }
    return std::nullopt;
  }
  if (path.nodes.empty() || path.nodes.front() != c.from || path.nodes.back() != c.to) {
    return "path endpoints do not match the query";
  }
  if (path.nodes.size() != path.edges.size() + 1) return "nodes/edges size mismatch";
  double sum = 0.0;
  for (std::size_t i = 0; i < path.edges.size(); ++i) {
    const auto it = std::find_if(effective.begin(), effective.end(),
                                 [&](const EffectiveEdge& e) { return e.id == path.edges[i]; });
    if (it == effective.end()) {
      return "path uses edge " + std::to_string(path.edges[i]) +
             " that is masked or out of range";
    }
    const bool fwd = it->a == path.nodes[i] && it->b == path.nodes[i + 1];
    const bool rev = it->b == path.nodes[i] && it->a == path.nodes[i + 1];
    if (!fwd && !rev) return "edge " + std::to_string(path.edges[i]) + " breaks the node chain";
    sum += it->weight;
  }
  if (sum != path.cost) {
    return "cost " + std::to_string(path.cost) + " != edge-weight sum " + std::to_string(sum);
  }
  return std::nullopt;
}

inline prop::Property<prop::GraphCase> path_reference_property(Fault fault = Fault::None) {
  return [fault](const prop::GraphCase& c) -> std::optional<std::string> {
    const route::PathEngine engine(c.num_nodes, c.edges);
    route::Query query;
    if (!c.mask.empty()) query.masked = &c.mask;
    if (!c.overlay.empty()) query.overlay = &c.overlay;
    const auto path = engine.shortest_path(c.from, c.to, query);
    if (auto invalid = validate_path(c, path)) return invalid;

    const auto reference = bellman_ford(
        c.num_nodes,
        effective_edges(c, fault == Fault::ReferenceIgnoresMask, /*drop_last_overlay=*/false),
        c.from);
    double subject_cost = path.cost;
    if (fault == Fault::SubjectCostOff && path.reachable) subject_cost += 0.25;
    if (subject_cost != reference[c.to]) {
      return "engine cost " + std::to_string(subject_cost) + " != reference min cost " +
             std::to_string(reference[c.to]);
    }
    return std::nullopt;
  };
}

// --- O2 / O3: perturbation-vs-rebuild bit identity ---------------------

inline std::optional<std::string> compare_paths(const route::Path& subject,
                                                const route::Path& reference,
                                                const std::string& what) {
  if (subject.reachable != reference.reachable) return what + ": reachability differs";
  if (subject.cost != reference.cost) {
    return what + ": cost " + std::to_string(subject.cost) + " != " +
           std::to_string(reference.cost);
  }
  if (subject.edges != reference.edges) return what + ": edge sequences differ";
  if (subject.nodes != reference.nodes) return what + ": node sequences differ";
  return std::nullopt;
}

inline prop::Property<prop::GraphCase> overlay_rebuild_property(Fault fault = Fault::None) {
  return [fault](const prop::GraphCase& c) -> std::optional<std::string> {
    const route::PathEngine engine(c.num_nodes, c.edges);
    route::Query query;
    if (!c.mask.empty()) query.masked = &c.mask;
    if (!c.overlay.empty()) query.overlay = &c.overlay;
    const auto via_overlay = engine.shortest_path(c.from, c.to, query);

    auto merged = c.edges;
    const std::size_t overlays =
        c.overlay.size() - (fault == Fault::RebuildDropsOverlay && !c.overlay.empty());
    for (std::size_t i = 0; i < overlays; ++i) merged.push_back(c.overlay[i]);
    const route::PathEngine rebuilt(c.num_nodes, std::move(merged));
    route::Query base_query;
    if (!c.mask.empty()) base_query.masked = &c.mask;
    const auto via_rebuild = rebuilt.shortest_path(c.from, c.to, base_query);
    return compare_paths(via_overlay, via_rebuild, "overlay vs rebuilt graph");
  };
}

inline prop::Property<prop::GraphCase> override_rebuild_property(Fault fault = Fault::None) {
  return [fault](const prop::GraphCase& c) -> std::optional<std::string> {
    // Deterministic override derived from the case: edge e gets the base
    // weight of its mirror edge (n-1-e); masked ids are forbidden via
    // +inf, which must be equivalent to masking.
    const std::size_t n = c.edges.size();
    if (n == 0) return std::nullopt;
    std::vector<double> new_weights(n);
    for (std::size_t e = 0; e < n; ++e) new_weights[e] = c.edges[n - 1 - e].weight;
    for (route::EdgeId id : c.mask) new_weights[id] = kInfinity;

    const route::PathEngine engine(c.num_nodes, c.edges);
    const std::function<double(route::EdgeId)> override_fn = [&](route::EdgeId id) {
      return new_weights[id];
    };
    route::Query query;
    query.weight_override = &override_fn;
    const auto via_override = engine.shortest_path(c.from, c.to, query);

    auto rebuilt_edges = c.edges;
    for (std::size_t e = 0; e < n; ++e) rebuilt_edges[e].weight = new_weights[e];
    if (fault == Fault::OverrideLeaksBaseWeight) rebuilt_edges[0].weight = c.edges[0].weight;
    const route::PathEngine rebuilt(c.num_nodes, std::move(rebuilt_edges));
    // +inf-weighted edges are unreachable by relaxation, so no mask needed.
    const auto via_rebuild = rebuilt.shortest_path(c.from, c.to);
    return compare_paths(via_override, via_rebuild, "override vs rebuilt weights");
  };
}

// --- O4: planner reroutes vs masked point queries ----------------------

inline prop::Property<prop::MapSpec> planner_reroute_property(Fault fault = Fault::None) {
  return [fault](const prop::MapSpec& spec) -> std::optional<std::string> {
    const auto map = prop::build_fiber_map(spec);
    if (map.conduits().size() == 0) return std::nullopt;
    const auto matrix = risk::RiskMatrix::from_map(map);
    const optimize::RobustnessPlanner planner(map, matrix);

    // The planner's weight recipe, compiled here from the tenant lists.
    std::vector<route::EdgeSpec> edges;
    for (const auto& conduit : map.conduits()) {
      edges.push_back({conduit.a, conduit.b,
                       static_cast<double>(conduit.tenants.size()) + 1e-4 * conduit.length_km});
    }
    const route::PathEngine reference(static_cast<route::NodeId>(spec.num_cities),
                                      std::move(edges));

    const auto render = [](const std::vector<route::EdgeId>& ids) {
      std::string out = "{";
      for (std::size_t i = 0; i < ids.size(); ++i) {
        out += (i == 0 ? "" : ",") + std::to_string(ids[i]);
      }
      return out + "}";
    };
    for (const auto& conduit : map.conduits()) {
      const std::vector<route::EdgeId> mask{conduit.id};
      route::Query query;
      if (fault != Fault::RerouteReferenceIgnoresMask) query.masked = &mask;
      const auto expected = reference.shortest_path(conduit.a, conduit.b, query);
      // The reroute does not depend on which ISP asks.
      const auto got = planner.suggest_reroute(conduit.id, 0);
      if (got.optimized_path != expected.edges) {
        return "reroute around conduit " + std::to_string(conduit.id) + " is " +
               render(got.optimized_path) + ", masked reference " + render(expected.edges);
      }
    }
    return std::nullopt;
  };
}

// --- O5: parallel vs serial bit identity ------------------------------

struct CampaignCase {
  prop::MapSpec map;
  bool targeted = false;  ///< TargetedCuts instead of RandomCuts
  std::size_t steps = 4;
  std::size_t trials = 8;
  std::uint64_t seed = 1;
  std::vector<std::uint64_t> probes;  ///< per-conduit, may be empty
};

inline prop::Property<CampaignCase> campaign_bit_identity_property(Fault fault = Fault::None) {
  return [fault](const CampaignCase& c) -> std::optional<std::string> {
    const auto map = prop::build_fiber_map(c.map);
    if (map.conduits().size() == 0) return std::nullopt;
    std::vector<std::uint64_t> probes = c.probes;
    if (!probes.empty()) probes.resize(map.conduits().size(), 0);
    const sim::CampaignEngine engine(map, nullptr, nullptr, std::move(probes));
    sim::CampaignConfig config;
    config.stressor =
        c.targeted ? sim::Stressor::targeted_cuts(c.steps) : sim::Stressor::random_cuts(c.steps);
    config.trials = c.trials;
    config.seed = c.seed;
    sim::Executor serial(1);
    sim::Executor parallel(4);
    auto serial_report = engine.run(config, serial);
    const auto parallel_report = engine.run(config, parallel);
    if (fault == Fault::TamperSerialReport && !serial_report.connectivity.points.empty()) {
      serial_report.connectivity.points[0].mean += 0.5;
    }
    if (!(serial_report == parallel_report)) {
      return "campaign report differs between Executor(1) and Executor(4)";
    }
    return std::nullopt;
  };
}

// --- O7: what-if cut vs hand-computed expectation -----------------------

inline prop::Property<std::vector<core::ConduitId>> whatif_cut_property(
    const serve::Snapshot& base, Fault fault = Fault::None) {
  const serve::Snapshot* base_ptr = &base;
  return [base_ptr, fault](const std::vector<core::ConduitId>& raw_cuts)
             -> std::optional<std::string> {
    const auto& old_map = base_ptr->map();
    std::vector<core::ConduitId> cuts;
    for (core::ConduitId c : raw_cuts) {
      if (c < old_map.conduits().size()) cuts.push_back(c);
    }
    const auto snap = serve::Snapshot::with_conduits_cut(*base_ptr, cuts);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    const auto is_cut = [&cuts](core::ConduitId c) {
      return std::binary_search(cuts.begin(), cuts.end(), c);
    };

    // Hand-computed expectations straight off the base map — no FiberMap
    // construction, no corridor remapping, no RiskMatrix.
    std::size_t expected_severed = 0;
    for (const auto& link : old_map.links()) {
      if (std::any_of(link.conduits.begin(), link.conduits.end(), is_cut)) ++expected_severed;
    }
    if (fault == Fault::MiscountSeveredLinks) ++expected_severed;
    if (snap->links_severed() != expected_severed) {
      return "links_severed " + std::to_string(snap->links_severed()) + " != expected " +
             std::to_string(expected_severed);
    }

    std::vector<std::size_t> survivor_tenancy;
    std::size_t max_tenancy = 0;
    for (const auto& conduit : old_map.conduits()) {
      if (is_cut(conduit.id)) continue;
      survivor_tenancy.push_back(conduit.tenants.size());
      max_tenancy = std::max(max_tenancy, conduit.tenants.size());
    }
    const auto& matrix = snap->matrix();
    if (matrix.num_conduits() != survivor_tenancy.size()) {
      return "cut matrix has " + std::to_string(matrix.num_conduits()) + " conduits, expected " +
             std::to_string(survivor_tenancy.size());
    }
    // Survivors keep their tenancy and their relative order (ids compact).
    for (std::size_t i = 0; i < survivor_tenancy.size(); ++i) {
      if (matrix.sharing_count(static_cast<core::ConduitId>(i)) != survivor_tenancy[i]) {
        return "survivor " + std::to_string(i) + " sharing " +
               std::to_string(matrix.sharing_count(static_cast<core::ConduitId>(i))) +
               " != expected " + std::to_string(survivor_tenancy[i]);
      }
    }
    // The precomputed sharing table matches a hand count.
    const auto& table = snap->sharing_table();
    for (std::size_t k = 1; k <= max_tenancy; ++k) {
      const auto expected = static_cast<std::size_t>(
          std::count_if(survivor_tenancy.begin(), survivor_tenancy.end(),
                        [k](std::size_t t) { return t >= k; }));
      if (k - 1 >= table.size() || table[k - 1] != expected) {
        return "sharing_table[k=" + std::to_string(k) + "] != hand count " +
               std::to_string(expected);
      }
    }
    return std::nullopt;
  };
}

// --- O8: strict vs lenient ingest on clean inputs -----------------------

inline prop::Property<prop::MapSpec> ingest_equivalence_property(
    const core::Scenario& scenario, Fault fault = Fault::None) {
  const core::Scenario* world = &scenario;
  return [world, fault](const prop::MapSpec& spec) -> std::optional<std::string> {
    const auto& cities = core::Scenario::cities();
    const auto& row = world->row();
    const auto& profiles = world->truth().profiles();
    const auto map = prop::build_fiber_map(spec, &row);
    std::string text = core::serialize_dataset(map, cities, row, profiles);
    if (fault == Fault::CorruptDatasetLine) text += "garbage\trecord\n";

    core::FiberMap strict_map(0);
    try {
      strict_map = core::parse_dataset(text, cities, row, profiles);
    } catch (const ParseError& e) {
      return std::string("strict parse threw on a clean dataset: ") + e.what();
    }
    DiagnosticSink sink(ParsePolicy::Lenient);
    const auto lenient_map = core::parse_dataset(text, cities, row, profiles, sink);
    if (sink.total() != 0) {
      return "lenient parse of a clean dataset produced " + std::to_string(sink.total()) +
             " diagnostics";
    }
    const auto strict_bytes = core::serialize_dataset(strict_map, cities, row, profiles);
    const auto lenient_bytes = core::serialize_dataset(lenient_map, cities, row, profiles);
    if (strict_bytes != lenient_bytes) {
      return "strict and lenient parses of the same clean dataset serialize differently";
    }
    if (strict_map.conduits().size() != map.conduits().size() ||
        strict_map.links().size() != map.links().size()) {
      return "round-trip changed counts: " + std::to_string(strict_map.conduits().size()) + "/" +
             std::to_string(map.conduits().size()) + " conduits, " +
             std::to_string(strict_map.links().size()) + "/" +
             std::to_string(map.links().size()) + " links";
    }
    return std::nullopt;
  };
}

// --- O9: target-set search vs point queries and forest rows ------------

inline prop::Property<prop::GraphCase> target_search_property(Fault fault = Fault::None) {
  return [fault](const prop::GraphCase& c) -> std::optional<std::string> {
    // One node past the case's graph has no edges: no search reaches it.
    const route::NodeId isolated = c.num_nodes;
    const route::PathEngine engine(c.num_nodes + 1, c.edges);
    route::Query query;
    if (!c.mask.empty()) query.masked = &c.mask;
    if (!c.overlay.empty()) query.overlay = &c.overlay;

    // The source, a case-derived fifth of the nodes, the isolated node
    // when `to` is odd (otherwise the search may stop early), and `to`
    // twice, last.
    std::vector<route::NodeId> targets{c.from};
    for (route::NodeId n = 0; n < c.num_nodes; ++n) {
      if ((n * 2654435761u + c.to) % 5 == 0) targets.push_back(n);
    }
    if (c.to % 2 == 1) targets.push_back(isolated);
    targets.push_back(c.to);
    targets.push_back(c.to);
    std::vector<route::NodeId> searched = targets;
    if (fault == Fault::SearchDropsTarget) std::erase(searched, c.to);

    route::PathEngine::Workspace ws;
    engine.search_targets(c.from, searched, query, ws);
    std::vector<route::Path> got;
    for (route::NodeId t : targets) {
      route::Path path;
      if (ws.settled(t)) {
        path.reachable = true;
        path.cost = ws.distance(t);
        ws.for_each_path_edge(t, [&](route::EdgeId e) { path.edges.push_back(e); });
        std::reverse(path.edges.begin(), path.edges.end());
      }
      got.push_back(std::move(path));
    }

    const auto forest = engine.route_forest({c.from}, query);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const route::NodeId t = targets[i];
      const auto point = engine.shortest_path(c.from, t, query);
      const auto row = forest.path_to(0, t);
      const std::string what = "target " + std::to_string(t);
      if (auto diff = compare_paths(row, point, what + ": forest row vs shortest_path")) {
        return diff;
      }
      route::Path expected = point;
      expected.nodes.clear();  // the search reads back edges only
      if (auto diff = compare_paths(got[i], expected, what + ": search vs shortest_path")) {
        return diff;
      }
    }

    // No targets: the search settles the whole row.
    engine.search_targets(c.from, {}, query, ws);
    for (route::NodeId n = 0; n <= isolated; ++n) {
      const bool reachable = forest.reachable(0, n);
      if (ws.settled(n) != reachable ||
          (reachable && ws.distance(n) != forest.dist_at(0, n))) {
        return "node " + std::to_string(n) + ": target-free search differs from the forest row";
      }
    }
    return std::nullopt;
  };
}

// --- O10: incremental cascade rounds vs the all-demands reference -------

struct CascadeCase {
  prop::MapSpec map;
  std::vector<double> weights;        ///< by LinkId; empty = unit demands
  std::vector<core::ConduitId> cuts;  ///< may repeat; ids past the map are dropped
  double margin = 0.25;
  std::size_t max_rounds = 8;
};

/// The all-demands overload round the engine replaced, kept as the
/// reference: every round, every demand whose chain is cut is routed from
/// a full route_forest row of its source.  With keep_first_reroute (a
/// deliberate fault) a demand keeps its first route for good.
inline cascade::CascadeOutcome reference_cascade(const core::FiberMap& map,
                                                 const std::vector<double>& weights,
                                                 const cascade::CascadeEngine& structure,
                                                 const std::vector<core::ConduitId>& cuts,
                                                 const cascade::CascadeParams& params,
                                                 bool keep_first_reroute) {
  const std::size_t num_conduits = map.conduits().size();
  std::vector<route::EdgeSpec> edges;
  route::NodeId top = 0;
  for (const auto& conduit : map.conduits()) {
    edges.push_back({conduit.a, conduit.b, conduit.length_km});
    top = std::max({top, conduit.a, conduit.b});
  }
  for (const auto& link : map.links()) top = std::max({top, link.a, link.b});
  const route::PathEngine engine(top + 1, std::move(edges));

  const auto& links = map.links();
  std::vector<double> baseline_km(links.size(), 0.0);
  std::vector<double> baseline_load(num_conduits, 0.0);
  double total_weight = 0.0;
  for (std::size_t i = 0; i < links.size(); ++i) {
    for (core::ConduitId cid : links[i].conduits) {
      baseline_km[i] += map.conduit(cid).length_km;
      baseline_load[cid] += weights[i];
    }
    total_weight += weights[i];
  }
  std::vector<double> capacity(num_conduits);
  for (std::size_t c = 0; c < num_conduits; ++c) {
    capacity[c] = std::max(params.capacity_floor, (1.0 + params.capacity_margin) * baseline_load[c]);
  }

  std::vector<char> dead(num_conduits, 0);
  for (core::ConduitId cid : cuts) dead[cid] = 1;
  cascade::CascadeOutcome outcome;
  outcome.isp_links_lost.assign(map.num_isps(), 0);
  std::vector<char> delivered(links.size(), 0);
  std::vector<double> km(links.size(), 0.0);
  std::vector<std::vector<route::EdgeId>> first_route(links.size());
  std::vector<char> rerouted(links.size(), 0);
  for (std::size_t round = 0;; ++round) {
    std::vector<double> load(num_conduits, 0.0);
    std::vector<core::ConduitId> dead_ids;
    for (core::ConduitId c = 0; c < num_conduits; ++c) {
      if (dead[c]) dead_ids.push_back(c);
    }
    std::vector<std::size_t> affected;
    for (std::size_t i = 0; i < links.size(); ++i) {
      const auto& chain = links[i].conduits;
      if (std::none_of(chain.begin(), chain.end(), [&](core::ConduitId c) { return dead[c]; })) {
        delivered[i] = 1;
        km[i] = baseline_km[i];
        for (core::ConduitId cid : chain) load[cid] += weights[i];
      } else {
        affected.push_back(i);
      }
    }
    std::vector<route::NodeId> sources;
    for (std::size_t i : affected) sources.push_back(links[i].a);
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
    route::Query query;
    query.masked = &dead_ids;
    const route::RouteForest forest = engine.route_forest(sources, query);
    for (std::size_t i : affected) {
      if (keep_first_reroute && rerouted[i]) {
        for (route::EdgeId e : first_route[i]) load[e] += weights[i];
        continue;
      }
      const auto row = static_cast<std::size_t>(
          std::lower_bound(sources.begin(), sources.end(), links[i].a) - sources.begin());
      if (forest.reachable(row, links[i].b)) {
        delivered[i] = 1;
        km[i] = forest.dist_at(row, links[i].b);
        forest.for_each_path_edge(row, links[i].b, [&](route::EdgeId e) {
          load[e] += weights[i];
          if (keep_first_reroute) first_route[i].push_back(e);
        });
        rerouted[i] = 1;
      } else {
        delivered[i] = 0;
        km[i] = kInfinity;
      }
    }

    cascade::RoundPoint point;
    point.round = round;
    point.conduits_dead = dead_ids.size();
    point.overload_failed = outcome.overload_failures.size();
    const auto structural = structure.evaluate_structure(dead_ids);
    point.giant_component = structural.giant_component;
    point.l3_edges_dead = structural.l3_edges_dead;
    point.l3_reachability = structural.l3_reachability;
    double delivered_weight = 0.0;
    double stretch_sum = 0.0;
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (!delivered[i]) continue;
      delivered_weight += weights[i];
      const double baseline = baseline_km[i] > 0.0 ? baseline_km[i] : 1.0;
      stretch_sum += weights[i] * (km[i] / baseline);
    }
    point.demand_delivered = links.empty() ? 1.0 : delivered_weight / total_weight;
    point.mean_stretch = delivered_weight > 0.0 ? stretch_sum / delivered_weight : kInfinity;
    outcome.rounds.push_back(point);

    std::vector<core::ConduitId> overloaded;
    for (core::ConduitId c = 0; c < num_conduits; ++c) {
      if (!dead[c] && load[c] > capacity[c]) overloaded.push_back(c);
    }
    if (overloaded.empty() || round == params.max_rounds) {
      outcome.fixed_point_round = round;
      outcome.converged = overloaded.empty();
      for (std::size_t i = 0; i < links.size(); ++i) {
        if (!delivered[i]) ++outcome.isp_links_lost[links[i].isp];
      }
      return outcome;
    }
    for (core::ConduitId c : overloaded) {
      dead[c] = 1;
      outcome.overload_failures.push_back(c);
    }
  }
}

inline prop::Property<CascadeCase> cascade_reference_property(Fault fault = Fault::None) {
  return [fault](const CascadeCase& c) -> std::optional<std::string> {
    const auto map = prop::build_fiber_map(c.map);
    if (map.conduits().size() == 0) return std::nullopt;
    std::vector<core::ConduitId> cuts;
    for (core::ConduitId cid : c.cuts) {
      if (cid < map.conduits().size()) cuts.push_back(cid);
    }
    // Shrinking may drop links: pad or trim the weights to the map.
    std::vector<double> weights = c.weights;
    const bool unit = weights.empty();
    weights.resize(map.links().size(), 1.0);
    const cascade::CascadeEngine engine(map, nullptr, nullptr, nullptr, nullptr,
                                        unit ? nullptr : &weights);
    cascade::CascadeParams params;
    params.capacity_margin = c.margin;
    params.max_rounds = c.max_rounds;

    const auto got = engine.run_cascade(cuts, params);
    const auto expected = reference_cascade(map, weights, engine, cuts, params,
                                            fault == Fault::ReferenceKeepsFirstReroute);
    if (got == expected) return std::nullopt;
    for (std::size_t r = 0; r < std::min(got.rounds.size(), expected.rounds.size()); ++r) {
      if (!(got.rounds[r] == expected.rounds[r])) {
        const auto& g = got.rounds[r];
        const auto& e = expected.rounds[r];
        std::ostringstream out;
        out.precision(17);
        out << "round " << r << " differs: dead " << g.conduits_dead << "/" << e.conduits_dead
            << ", delivered " << g.demand_delivered << "/" << e.demand_delivered << ", stretch "
            << g.mean_stretch << "/" << e.mean_stretch;
        return out.str();
      }
    }
    return "outcome differs: " + std::to_string(got.rounds.size()) + " vs " +
           std::to_string(expected.rounds.size()) + " rounds, " +
           std::to_string(got.overload_failures.size()) + " vs " +
           std::to_string(expected.overload_failures.size()) + " overload failures";
  };
}

inline prop::Gen<CascadeCase> cascade_cases(const prop::MapGenParams& params = {}) {
  const auto maps = prop::fiber_maps(params);
  prop::Gen<CascadeCase> gen;
  gen.create = [maps](Rng& rng) {
    CascadeCase c;
    c.map = maps.create(rng);
    if (rng.chance(0.5)) {
      for (std::size_t i = 0; i < c.map.links.size(); ++i) {
        c.weights.push_back(rng.uniform(0.1, 4.0));
      }
    }
    const std::size_t num_cuts = 1 + rng.next_below(4);
    for (std::size_t k = 0; k < num_cuts; ++k) {
      c.cuts.push_back(static_cast<core::ConduitId>(rng.next_below(c.map.conduits.size())));
    }
    // A zero margin provisions each conduit at exactly its baseline load,
    // so whether a re-routed conduit overloads turns on the last bit of
    // its load sum: the cases that pin the order loads are summed in.
    c.margin = rng.chance(0.25) ? 0.0 : rng.uniform(0.0, 1.0);
    c.max_rounds = 1 + rng.next_below(8);
    return c;
  };
  gen.shrink = [maps](const CascadeCase& c) {
    std::vector<CascadeCase> candidates;
    for (auto& smaller : maps.shrink(c.map)) {
      CascadeCase copy = c;
      copy.map = std::move(smaller);
      candidates.push_back(std::move(copy));
    }
    if (!c.weights.empty()) {
      CascadeCase unit = c;
      unit.weights.clear();
      candidates.push_back(std::move(unit));
    }
    if (c.cuts.size() > 1) {
      CascadeCase fewer = c;
      fewer.cuts.pop_back();
      candidates.push_back(std::move(fewer));
    }
    if (c.max_rounds > 1) {
      CascadeCase shorter = c;
      shorter.max_rounds = c.max_rounds / 2;
      candidates.push_back(std::move(shorter));
    }
    return candidates;
  };
  gen.describe = [](const CascadeCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "CascadeCase{margin=" << c.margin << ", max_rounds=" << c.max_rounds << ", cuts{";
    for (std::size_t i = 0; i < c.cuts.size(); ++i) out << (i ? "," : "") << c.cuts[i];
    out << "}, weights{";
    for (std::size_t i = 0; i < c.weights.size(); ++i) out << (i ? "," : "") << c.weights[i];
    out << "}, " << prop::describe(c.map) << "}";
    return out.str();
  };
  return gen;
}

// --- O11: reverse connectivity pass vs the per-step forward DFS --------

struct ForwardConnectivity {
  std::size_t components = 0;
  double pair_fraction = 1.0;
};

/// The per-step forward DFS the connectivity kernel replaced, kept as the
/// reference: components and connected-pair fraction of the conduit graph
/// over map.nodes() with the `dead` conduits removed.
inline ForwardConnectivity forward_connectivity(const core::FiberMap& map,
                                                const std::vector<char>& dead) {
  std::map<transport::CityId, std::uint32_t> index_of;
  for (transport::CityId node : map.nodes()) {
    index_of.emplace(node, static_cast<std::uint32_t>(index_of.size()));
  }
  const std::size_t n = index_of.size();
  std::vector<std::vector<std::pair<std::uint32_t, core::ConduitId>>> adjacency(n);
  for (const auto& conduit : map.conduits()) {
    const std::uint32_t u = index_of.at(conduit.a);
    const std::uint32_t v = index_of.at(conduit.b);
    adjacency[u].emplace_back(v, conduit.id);
    adjacency[v].emplace_back(u, conduit.id);
  }
  ForwardConnectivity result;
  std::vector<char> visited(n, 0);
  double connected_pairs = 0.0;
  std::vector<std::uint32_t> stack;
  for (std::uint32_t start = 0; start < n; ++start) {
    if (visited[start]) continue;
    ++result.components;
    std::size_t size = 0;
    stack.assign(1, start);
    visited[start] = 1;
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      ++size;
      for (const auto& [v, cid] : adjacency[u]) {
        if (dead[cid] || visited[v]) continue;
        visited[v] = 1;
        stack.push_back(v);
      }
    }
    connected_pairs += static_cast<double>(size) * static_cast<double>(size - 1) / 2.0;
  }
  const double total_pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  result.pair_fraction = total_pairs > 0.0 ? connected_pairs / total_pairs : 1.0;
  return result;
}

struct FailureSequenceCase {
  prop::MapSpec map;
  /// Cut draws per step: ids may repeat within and across steps, a step
  /// may be empty, and ids past the map are dropped.  The campaign half
  /// runs as many steps as there are draws.
  std::vector<std::vector<core::ConduitId>> steps;
};

inline prop::Property<FailureSequenceCase> reverse_pass_property(Fault fault = Fault::None) {
  return [fault](const FailureSequenceCase& c) -> std::optional<std::string> {
    const auto map = prop::build_fiber_map(c.map);
    const std::size_t num_conduits = map.conduits().size();
    std::vector<std::vector<core::ConduitId>> steps;
    for (const auto& step : c.steps) {
      steps.emplace_back();
      for (core::ConduitId cid : step) {
        if (cid < num_conduits) steps.back().push_back(cid);
      }
    }

    // A conduit is dead from the first step that strikes it (the fault
    // moves a repeated id to its last step).
    const sim::CampaignEngine engine(map);
    const auto trial = engine.evaluate_cuts(steps);
    std::vector<std::size_t> death_step(num_conduits, steps.size() + 1);
    for (std::size_t s = 0; s < steps.size(); ++s) {
      for (core::ConduitId cid : steps[s]) {
        if (fault == Fault::ReferenceKillsRepeatLate || death_step[cid] > steps.size()) {
          death_step[cid] = s + 1;
        }
      }
    }
    if (trial.points.size() != steps.size() + 1) return "trial has the wrong number of points";
    for (std::size_t s = 0; s <= steps.size(); ++s) {
      std::vector<char> dead(num_conduits, 0);
      for (core::ConduitId cid = 0; cid < num_conduits; ++cid) dead[cid] = death_step[cid] <= s;
      const auto expected = forward_connectivity(map, dead);
      const auto& got = trial.points[s];
      if (got.components != expected.components ||
          got.connected_pair_fraction != expected.pair_fraction) {
        std::ostringstream out;
        out.precision(17);
        out << "campaign step " << s << ": components " << got.components << "/"
            << expected.components << ", connected " << got.connected_pair_fraction << "/"
            << expected.pair_fraction;
        return out.str();
      }
    }

    // The campaign half: CampaignEngine::run's connectivity and
    // components means against the forward DFS over the trials' own
    // draws (engine.draw_cuts), folded in trial order.  run() clamps cut
    // stressors to the conduit count, so the reference does too.
    constexpr std::size_t kTrials = 3;
    constexpr std::uint64_t kSeed = 0x1257;
    for (auto stressor : {sim::Stressor::random_cuts(steps.size()),
                          sim::Stressor::targeted_cuts(steps.size())}) {
      const auto report = engine.run({stressor, kTrials, kSeed});
      stressor.steps = std::min(stressor.steps, num_conduits);
      std::vector<double> connected(stressor.steps + 1, 0.0);
      std::vector<double> components(stressor.steps + 1, 0.0);
      for (std::size_t t = 0; t < kTrials; ++t) {
        const auto draws = engine.draw_cuts(stressor, kSeed, t);
        std::vector<char> dead(num_conduits, 0);
        for (std::size_t s = 0; s <= stressor.steps; ++s) {
          if (s > 0) {
            for (core::ConduitId cid : draws[s - 1]) dead[cid] = 1;
          }
          const auto expected = forward_connectivity(map, dead);
          connected[s] += expected.pair_fraction;
          components[s] += static_cast<double>(expected.components);
        }
      }
      if (report.connectivity.points.size() != stressor.steps + 1) {
        return sim::stressor_name(stressor) + " campaign has the wrong number of points";
      }
      for (std::size_t s = 0; s <= stressor.steps; ++s) {
        const double want_connected = connected[s] / static_cast<double>(kTrials);
        const double want_components = components[s] / static_cast<double>(kTrials);
        const double got_connected = report.connectivity.points[s].mean;
        const double got_components = report.components.points[s].mean;
        if (got_connected != want_connected || got_components != want_components) {
          std::ostringstream out;
          out.precision(17);
          out << sim::stressor_name(stressor) << " campaign step " << s << ": connected "
              << got_connected << "/" << want_connected << ", components " << got_components
              << "/" << want_components;
          return out.str();
        }
      }
    }
    return std::nullopt;
  };
}

inline prop::Gen<FailureSequenceCase> failure_sequence_cases(
    const prop::MapGenParams& params = {}) {
  const auto maps = prop::fiber_maps(params);
  prop::Gen<FailureSequenceCase> gen;
  gen.create = [maps](Rng& rng) {
    FailureSequenceCase c;
    // A conduit whose both ends are `city`: the city's only conduit
    // leaves it an isolated node.
    const auto self_loop = [](transport::CityId city) {
      prop::ConduitSpec loop;
      loop.a = loop.b = city;
      return loop;
    };
    const double shape = rng.uniform(0.0, 1.0);
    if (shape < 0.05) {
      c.map.num_cities = 0;  // no conduits, no nodes
    } else if (shape < 0.1) {
      c.map.num_cities = 1;
      c.map.conduits.push_back(self_loop(0));
    } else {
      c.map = maps.create(rng);
      // Parallel conduits and isolated nodes.
      const std::size_t extras = rng.next_below(3);
      for (std::size_t k = 0; k < extras; ++k) {
        if (rng.chance(0.5)) {
          const auto& twin = c.map.conduits[rng.next_below(c.map.conduits.size())];
          prop::ConduitSpec parallel;
          parallel.a = twin.a;
          parallel.b = twin.b;
          c.map.conduits.push_back(parallel);
        } else {
          c.map.conduits.push_back(self_loop(static_cast<transport::CityId>(c.map.num_cities++)));
        }
      }
    }
    const std::size_t num_conduits = c.map.conduits.size();
    const std::size_t num_steps = rng.next_below(8);
    for (std::size_t s = 0; s < num_steps; ++s) {
      std::vector<core::ConduitId> step;
      if (num_conduits > 0) {
        const std::size_t cuts = rng.next_below(4);  // 0: an empty step
        for (std::size_t k = 0; k < cuts; ++k) {
          step.push_back(static_cast<core::ConduitId>(rng.next_below(num_conduits)));
        }
        // Strike an earlier step's conduit again.
        if (s > 0 && !c.steps[s - 1].empty() && rng.chance(0.5)) {
          step.push_back(c.steps[s - 1][rng.next_below(c.steps[s - 1].size())]);
        }
      }
      c.steps.push_back(std::move(step));
    }
    return c;
  };
  gen.shrink = [maps](const FailureSequenceCase& c) {
    std::vector<FailureSequenceCase> candidates;
    for (auto& smaller : maps.shrink(c.map)) {
      FailureSequenceCase copy = c;
      copy.map = std::move(smaller);
      candidates.push_back(std::move(copy));
    }
    if (!c.steps.empty()) {
      FailureSequenceCase fewer = c;
      fewer.steps.pop_back();
      candidates.push_back(std::move(fewer));
    }
    for (std::size_t s = 0; s < c.steps.size(); ++s) {
      if (c.steps[s].empty()) continue;
      FailureSequenceCase smaller = c;
      smaller.steps[s].erase(smaller.steps[s].begin());
      candidates.push_back(std::move(smaller));
    }
    return candidates;
  };
  gen.describe = [](const FailureSequenceCase& c) {
    std::ostringstream out;
    out << "FailureSequenceCase{steps{";
    for (std::size_t s = 0; s < c.steps.size(); ++s) {
      out << (s ? " " : "") << "[";
      for (std::size_t k = 0; k < c.steps[s].size(); ++k) out << (k ? "," : "") << c.steps[s][k];
      out << "]";
    }
    out << "}, " << prop::describe(c.map) << "}";
    return out.str();
  };
  return gen;
}

/// Independent giant-component oracle: plain BFS over the conduit list,
/// no shared code with the connectivity kernel.
inline double brute_force_giant(const core::FiberMap& map, const std::vector<char>& dead) {
  const auto& nodes = map.nodes();
  if (nodes.size() < 2) return 1.0;
  std::vector<std::vector<transport::CityId>> adj;
  const auto index_of = [&nodes](transport::CityId city) {
    return static_cast<std::size_t>(
        std::lower_bound(nodes.begin(), nodes.end(), city) - nodes.begin());
  };
  adj.resize(nodes.size());
  for (const auto& conduit : map.conduits()) {
    if (dead[conduit.id]) continue;
    adj[index_of(conduit.a)].push_back(conduit.b);
    adj[index_of(conduit.b)].push_back(conduit.a);
  }
  std::vector<char> visited(nodes.size(), 0);
  std::size_t giant = 0;
  for (std::size_t start = 0; start < nodes.size(); ++start) {
    if (visited[start]) continue;
    std::size_t size = 0;
    std::vector<std::size_t> frontier{start};
    visited[start] = 1;
    while (!frontier.empty()) {
      const std::size_t u = frontier.back();
      frontier.pop_back();
      ++size;
      for (transport::CityId city : adj[u]) {
        const std::size_t v = index_of(city);
        if (!visited[v]) {
          visited[v] = 1;
          frontier.push_back(v);
        }
      }
    }
    giant = std::max(giant, size);
  }
  return static_cast<double>(giant) / static_cast<double>(nodes.size());
}

struct L3Damage {
  double edges_dead = 0.0;
  double reachability = 1.0;
};

/// Independent L3 oracle: an L3 edge dies iff any of its corridors maps
/// (through the public conduit_for_corridor) onto a dead conduit; peering
/// edges have no corridors and never die.  Reachability by BFS over the
/// surviving router graph.
inline L3Damage brute_force_l3(const core::FiberMap& map, const traceroute::L3Topology& l3,
                               const std::vector<char>& dead) {
  const auto& edges = l3.edges();
  std::size_t dead_edges = 0;
  std::vector<std::vector<traceroute::RouterIdx>> adj(l3.routers().size());
  for (const auto& edge : edges) {
    bool edge_dead = false;
    for (transport::CorridorId corridor : edge.corridors) {
      const auto cid = map.conduit_for_corridor(corridor);
      if (cid && dead[*cid]) {
        edge_dead = true;
        break;
      }
    }
    if (edge_dead) {
      ++dead_edges;
    } else {
      adj[edge.u].push_back(edge.v);
      adj[edge.v].push_back(edge.u);
    }
  }
  const std::size_t n = l3.routers().size();
  std::vector<char> visited(n, 0);
  double connected = 0.0;
  for (std::size_t start = 0; start < n; ++start) {
    if (visited[start]) continue;
    std::size_t size = 0;
    std::vector<traceroute::RouterIdx> frontier{static_cast<traceroute::RouterIdx>(start)};
    visited[start] = 1;
    while (!frontier.empty()) {
      const auto u = frontier.back();
      frontier.pop_back();
      ++size;
      for (traceroute::RouterIdx v : adj[u]) {
        if (!visited[v]) {
          visited[v] = 1;
          frontier.push_back(v);
        }
      }
    }
    const double s = static_cast<double>(size);
    connected += s * (s - 1.0) / 2.0;
  }
  const double total = static_cast<double>(n) * (static_cast<double>(n) - 1.0) / 2.0;
  L3Damage damage;
  damage.reachability = n < 2 ? 1.0 : connected / total;
  damage.edges_dead =
      edges.empty() ? 0.0 : static_cast<double>(dead_edges) / static_cast<double>(edges.size());
  return damage;
}

struct CascadeRoundCase {
  std::vector<core::ConduitId> cuts;  ///< may repeat
  double margin = 0.0;
  std::size_t max_rounds = 4;
};

/// Every run_cascade round's structure vs brute-force BFS over that
/// round's dead set: the cuts plus the overload failures of every wave up
/// to that round.  `engine` must carry `l3` and be built over `map`.
inline prop::Property<CascadeRoundCase> cascade_round_structure_property(
    const cascade::CascadeEngine& engine, const core::FiberMap& map,
    const traceroute::L3Topology& l3) {
  return [&engine, &map, &l3](const CascadeRoundCase& c) -> std::optional<std::string> {
    cascade::CascadeParams params;
    params.capacity_margin = c.margin;
    params.max_rounds = c.max_rounds;
    const auto outcome = engine.run_cascade(c.cuts, params);
    std::vector<char> dead(map.conduits().size(), 0);
    for (core::ConduitId cid : c.cuts) dead[cid] = 1;
    std::size_t applied = 0;
    for (const auto& round : outcome.rounds) {
      for (; applied < round.overload_failed; ++applied) {
        dead[outcome.overload_failures[applied]] = 1;
      }
      const double giant = brute_force_giant(map, dead);
      const auto damage = brute_force_l3(map, l3, dead);
      if (round.giant_component != giant || round.l3_edges_dead != damage.edges_dead ||
          round.l3_reachability != damage.reachability) {
        std::ostringstream out;
        out.precision(17);
        out << "round " << round.round << ": giant " << round.giant_component << "/" << giant
            << ", L3 dead " << round.l3_edges_dead << "/" << damage.edges_dead << ", L3 reach "
            << round.l3_reachability << "/" << damage.reachability;
        return out.str();
      }
    }
    return std::nullopt;
  };
}

inline prop::Gen<CascadeRoundCase> cascade_round_cases(std::size_t num_conduits) {
  const auto cuts = prop::cut_sets(num_conduits, 12);
  prop::Gen<CascadeRoundCase> gen;
  gen.create = [cuts](Rng& rng) {
    CascadeRoundCase c;
    c.cuts = cuts.create(rng);
    // A zero margin fails every conduit a re-routed demand pushes past
    // its baseline, so the rounds' dead sets keep growing.
    c.margin = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 0.5);
    c.max_rounds = 1 + rng.next_below(6);
    return c;
  };
  gen.shrink = [cuts](const CascadeRoundCase& c) {
    std::vector<CascadeRoundCase> candidates;
    for (auto& smaller : cuts.shrink(c.cuts)) {
      CascadeRoundCase copy = c;
      copy.cuts = std::move(smaller);
      candidates.push_back(std::move(copy));
    }
    if (c.max_rounds > 1) {
      CascadeRoundCase shorter = c;
      shorter.max_rounds = c.max_rounds / 2;
      candidates.push_back(std::move(shorter));
    }
    return candidates;
  };
  gen.describe = [cuts](const CascadeRoundCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "CascadeRoundCase{margin=" << c.margin << ", max_rounds=" << c.max_rounds << ", "
        << cuts.describe(c.cuts) << "}";
    return out.str();
  };
  return gen;
}

// --- CampaignCase generator (composes the map + knobs) ------------------

inline std::string describe_campaign(const CampaignCase& c) {
  std::ostringstream out;
  out << "CampaignCase{" << (c.targeted ? "targeted" : "random") << ", steps=" << c.steps
      << ", trials=" << c.trials << ", seed=" << c.seed << ", probes="
      << (c.probes.empty() ? "none" : std::to_string(c.probes.size())) << ", "
      << prop::describe(c.map) << "}";
  return out.str();
}

inline prop::Gen<CampaignCase> campaign_cases(const prop::MapGenParams& params = {}) {
  const auto maps = prop::fiber_maps(params);
  prop::Gen<CampaignCase> gen;
  gen.create = [maps](Rng& rng) {
    CampaignCase c;
    c.map = maps.create(rng);
    c.targeted = rng.chance(0.5);
    c.steps = 1 + rng.next_below(6);
    c.trials = 1 + rng.next_below(8);
    c.seed = rng.next_u64();
    if (rng.chance(0.5)) {
      auto probes = prop::probe_corpora(c.map.conduits.size()).create(rng);
      c.probes = std::move(probes);
    }
    return c;
  };
  gen.shrink = [maps](const CampaignCase& c) {
    std::vector<CampaignCase> candidates;
    for (auto& smaller : maps.shrink(c.map)) {
      CampaignCase copy = c;
      copy.map = std::move(smaller);
      copy.probes.clear();  // sized per conduit; simplest to drop on shrink
      candidates.push_back(std::move(copy));
    }
    if (!c.probes.empty()) {
      CampaignCase no_probes = c;
      no_probes.probes.clear();
      candidates.push_back(std::move(no_probes));
    }
    if (c.trials > 1) {
      CampaignCase fewer = c;
      fewer.trials = c.trials / 2;
      candidates.push_back(std::move(fewer));
    }
    if (c.steps > 1) {
      CampaignCase fewer = c;
      fewer.steps = c.steps / 2;
      candidates.push_back(std::move(fewer));
    }
    return candidates;
  };
  gen.describe = describe_campaign;
  return gen;
}

}  // namespace intertubes::testing::oracles
