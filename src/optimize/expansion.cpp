#include "optimize/expansion.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "route/path_engine.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace intertubes::optimize {

using core::ConduitId;
using core::FiberMap;
using isp::IspId;
using transport::CityId;
using transport::CorridorId;

namespace {

/// The routing substrate for one expansion sweep: a PathEngine over the
/// existing conduits plus any committed new edges.  Tentative candidates
/// are never added here — they ride as overlay edges on individual
/// queries, so trying a candidate costs one search per demand source, not
/// a graph copy.
struct ExpansionGraph {
  route::NodeId num_nodes = 0;
  std::vector<route::EdgeSpec> edges;  ///< weight = sharing + 1e-4·length
  std::vector<double> sharing;         ///< risk term per edge, index = edge id
  std::unique_ptr<route::PathEngine> engine;

  void add_edge(CityId a, CityId b, double length_km, double shr) {
    edges.push_back({a, b, shr + 1e-4 * length_km});
    sharing.push_back(shr);
  }

  /// Recompile after committing edges.
  void rebuild() { engine = std::make_unique<route::PathEngine>(num_nodes, edges); }
};

/// Sharing (risk) of one new-conduit overlay edge: a private conduit has
/// exactly its owner as tenant.
constexpr double kNewConduitSharing = 1.0;

struct RiskEval {
  double avg = 0.0;
  std::size_t unreachable = 0;            ///< demands with no route
  std::vector<route::EdgeId> used;        ///< edge ids on any demand's route, ascending
};

/// ISP's average shared risk after min-risk re-routing of all its links,
/// optionally with one tentative overlay edge.  Demands with no route are
/// counted, not silently dropped.  `demands` is sorted by source: each
/// distinct source runs one search that stops once that source's targets
/// have settled, and a settled target's tree path is bit-identical to the
/// point query, so the greedy's choices (and the artifacts) do not depend
/// on how the demands are batched.
RiskEval evaluate_avg_risk(const ExpansionGraph& graph,
                           const std::vector<route::EdgeSpec>* overlay,
                           const std::vector<std::pair<CityId, CityId>>& demands) {
  route::Query query;
  query.overlay = overlay;
  RiskEval eval;
  const auto lease = graph.engine->lease_workspace();
  route::PathEngine::Workspace& ws = *lease;
  std::vector<route::NodeId> targets;
  for (std::size_t begin = 0, end = 0; begin < demands.size(); begin = end) {
    targets.clear();
    for (end = begin; end < demands.size() && demands[end].first == demands[begin].first; ++end) {
      targets.push_back(demands[end].second);
    }
    graph.engine->search_targets(demands[begin].first, targets, query, ws);
    for (route::NodeId target : targets) {
      if (!ws.settled(target)) {
        ++eval.unreachable;
        continue;
      }
      ws.for_each_path_edge(target, [&](route::EdgeId eid) { eval.used.push_back(eid); });
    }
  }
  std::sort(eval.used.begin(), eval.used.end());
  eval.used.erase(std::unique(eval.used.begin(), eval.used.end()), eval.used.end());
  if (eval.used.empty()) return eval;
  RunningStats stats;
  for (route::EdgeId eid : eval.used) {
    stats.add(eid < graph.sharing.size() ? graph.sharing[eid] : kNewConduitSharing);
  }
  eval.avg = stats.mean();
  return eval;
}

}  // namespace

ExpansionResult optimize_expansion(const FiberMap& map, const transport::RightOfWayRegistry& row,
                                   IspId isp, std::size_t max_k, const ExpansionParams& params) {
  ExpansionResult result;
  result.isp = isp;

  // The ISP's link demands, grouped by source for evaluate_avg_risk.
  std::vector<std::pair<CityId, CityId>> endpoints;
  for (const auto& link : map.links()) {
    if (link.isp == isp) endpoints.emplace_back(link.a, link.b);
  }
  if (endpoints.empty()) return result;
  std::sort(endpoints.begin(), endpoints.end());

  // Base graph from the constructed map.  Size the node space to cover
  // link endpoints too: a demand whose endpoint touches no conduit is a
  // legal (unroutable) query, not an out-of-range one.
  ExpansionGraph graph;
  for (const auto& conduit : map.conduits()) {
    graph.num_nodes = std::max(graph.num_nodes, std::max(conduit.a, conduit.b) + 1);
  }
  for (const auto& [a, b] : endpoints) {
    graph.num_nodes = std::max(graph.num_nodes, std::max(a, b) + 1);
  }
  for (const auto& conduit : map.conduits()) {
    graph.add_edge(conduit.a, conduit.b, conduit.length_km,
                   static_cast<double>(conduit.tenants.size()));
  }
  graph.rebuild();

  {
    const RiskEval baseline = evaluate_avg_risk(graph, nullptr, endpoints);
    result.baseline_avg_shared_risk = baseline.avg;
    result.unreachable_demands = baseline.unreachable;
  }

  // Footprint cities: endpoints of the ISP's conduits, expanded by
  // candidate_hops over the conduit graph.
  std::vector<char> footprint(graph.num_nodes, 0);
  for (ConduitId cid : map.conduits_of(isp)) {
    footprint[map.conduit(cid).a] = 1;
    footprint[map.conduit(cid).b] = 1;
  }
  for (std::size_t hop = 0; hop < params.candidate_hops; ++hop) {
    std::vector<char> next = footprint;
    for (CityId c = 0; c < footprint.size(); ++c) {
      if (!footprint[c]) continue;
      for (ConduitId cid : map.conduits_at(c)) {
        next[map.conduit(cid).a] = 1;
        next[map.conduit(cid).b] = 1;
      }
    }
    footprint.swap(next);
  }
  const auto in_footprint = [&footprint](CityId c) {
    return c < footprint.size() && footprint[c] != 0;
  };

  // Candidate corridors: unlit (no conduit in the map), both endpoints in
  // the footprint.
  std::vector<const transport::Corridor*> candidates;
  for (const auto& corridor : row.corridors()) {
    if (map.conduit_for_corridor(corridor.id).has_value()) continue;
    if (in_footprint(corridor.a) && in_footprint(corridor.b)) {
      candidates.push_back(&corridor);
    }
  }

  std::vector<char> taken(candidates.size(), 0);
  double previous_avg = result.baseline_avg_shared_risk;
  std::size_t previous_unreachable = result.unreachable_demands;
  for (std::size_t k = 0; k < max_k; ++k) {
    // Per-city shared-risk pressure: sum of (sharing − 1) over the edges
    // the ISP's *current* min-risk routing actually uses at that city —
    // the cheap surrogate that ranks candidates.  Recomputed each step so
    // the greedy chases the remaining pain, not the original map's.
    std::vector<double> pressure(graph.num_nodes, 0.0);
    {
      const RiskEval current = evaluate_avg_risk(graph, nullptr, endpoints);
      for (route::EdgeId eid : current.used) {
        const auto& e = graph.edges[eid];
        const double excess = std::max(0.0, graph.sharing[eid] - 1.0);
        pressure[e.a] += excess;
        pressure[e.b] += excess;
      }
    }
    // Rank remaining candidates by surrogate score.
    struct Scored {
      double score;
      std::size_t index;
    };
    std::vector<Scored> scored;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (taken[i]) continue;
      const auto* corridor = candidates[i];
      const double gain = pressure[corridor->a] + pressure[corridor->b];
      const double cost = 1.0 + params.cost_weight * corridor->length_km / 1000.0;
      if (gain <= 0.0) continue;
      scored.push_back({gain / cost, i});
    }
    std::sort(scored.begin(), scored.end(),
              [](const Scored& x, const Scored& y) { return x.score > y.score; });
    const std::size_t shortlist = std::min<std::size_t>(scored.size(), 8);

    // Exact evaluation of the shortlist: one overlay-edge evaluation per
    // candidate, no graph copies.  A candidate that leaves more demands
    // unreachable than the current graph is skipped outright (adding an
    // edge can never disconnect, so this guards the evaluation itself);
    // one that *re-connects* demands wins over any pure risk improvement.
    double best_avg = previous_avg;
    std::size_t best_unreachable = previous_unreachable;
    std::size_t best_index = candidates.size();
    for (std::size_t s = 0; s < shortlist; ++s) {
      const auto* corridor = candidates[scored[s].index];
      const std::vector<route::EdgeSpec> overlay{
          {corridor->a, corridor->b, kNewConduitSharing + 1e-4 * corridor->length_km}};
      const RiskEval trial = evaluate_avg_risk(graph, &overlay, endpoints);
      if (trial.unreachable > previous_unreachable) continue;
      const bool reconnects = trial.unreachable < best_unreachable;
      const bool lowers_risk =
          trial.unreachable == best_unreachable && trial.avg < best_avg - 1e-9;
      if (reconnects || lowers_risk) {
        best_avg = trial.avg;
        best_unreachable = trial.unreachable;
        best_index = scored[s].index;
      }
    }
    ExpansionStep step;
    if (best_index < candidates.size()) {
      const auto* corridor = candidates[best_index];
      taken[best_index] = 1;
      graph.add_edge(corridor->a, corridor->b, corridor->length_km, kNewConduitSharing);
      graph.rebuild();
      step.added = corridor->id;
      step.avg_shared_risk = best_avg;
      step.unreachable_demands = best_unreachable;
      previous_avg = best_avg;
      previous_unreachable = best_unreachable;
    } else {
      // No candidate helps: the curve flattens (Suddenlink's case in the
      // paper).
      step.added = transport::kNoCorridor;
      step.avg_shared_risk = previous_avg;
      step.unreachable_demands = previous_unreachable;
    }
    step.improvement_ratio =
        result.baseline_avg_shared_risk <= 0.0
            ? 0.0
            : 1.0 - step.avg_shared_risk / result.baseline_avg_shared_risk;
    result.steps.push_back(step);
  }
  return result;
}

}  // namespace intertubes::optimize
