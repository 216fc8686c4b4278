#include "optimize/robustness.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace intertubes::optimize {

using core::ConduitId;
using core::FiberMap;
using isp::IspId;

namespace {

/// Compile the conduit graph: node = city, edge id = conduit id, weight =
/// tenant count with a tiny length term so equally-risky paths prefer
/// shorter fiber (same metric the old per-call Dijkstra used).
route::PathEngine build_conduit_engine(const FiberMap& map, const risk::RiskMatrix& matrix) {
  route::NodeId num_nodes = 0;
  std::vector<route::EdgeSpec> edges;
  edges.reserve(map.conduits().size());
  for (const auto& c : map.conduits()) {
    num_nodes = std::max(num_nodes, std::max(c.a, c.b) + 1);
    edges.push_back({c.a, c.b,
                     static_cast<double>(matrix.sharing_count(c.id)) + 1e-4 * c.length_km});
  }
  return route::PathEngine(num_nodes, std::move(edges));
}

}  // namespace

RobustnessPlanner::RobustnessPlanner(const FiberMap& map, const risk::RiskMatrix& matrix)
    : map_(map), matrix_(matrix), engine_(build_conduit_engine(map, matrix)) {}

RerouteSuggestion RobustnessPlanner::reroute(ConduitId target,
                                             route::PathEngine::Workspace& ws) const {
  RerouteSuggestion suggestion;
  suggestion.target = target;
  const auto& conduit = map_.conduit(target);
  const std::vector<route::EdgeId> mask{target};
  route::Query query;
  query.masked = &mask;
  const route::Path path = engine_.shortest_path(conduit.a, conduit.b, query, ws);
  if (!path.reachable) return suggestion;
  suggestion.optimized_path.assign(path.edges.begin(), path.edges.end());
  suggestion.path_inflation = static_cast<int>(suggestion.optimized_path.size()) - 1;
  std::size_t worst = 0;
  for (ConduitId cid : suggestion.optimized_path) {
    worst = std::max(worst, matrix_.sharing_count(cid));
  }
  suggestion.shared_risk_reduction =
      static_cast<int>(matrix_.sharing_count(target)) - static_cast<int>(worst);
  return suggestion;
}

std::vector<RerouteSuggestion> RobustnessPlanner::reroutes(
    const std::vector<ConduitId>& targets) const {
  const auto lease = engine_.lease_workspace();
  std::vector<RerouteSuggestion> out;
  out.reserve(targets.size());
  for (ConduitId target : targets) out.push_back(reroute(target, *lease));
  return out;
}

RerouteSuggestion RobustnessPlanner::suggest_reroute(ConduitId target, IspId isp) const {
  const auto lease = engine_.lease_workspace();
  RerouteSuggestion suggestion = reroute(target, *lease);
  suggestion.isp = isp;
  return suggestion;
}

std::vector<IspRobustnessSummary> RobustnessPlanner::summarize_robustness(
    const std::vector<ConduitId>& targets) const {
  const auto around = reroutes(targets);
  std::vector<IspRobustnessSummary> out;
  out.reserve(map_.num_isps());
  for (IspId isp = 0; isp < map_.num_isps(); ++isp) {
    RunningStats pi;
    RunningStats srr;
    IspRobustnessSummary summary;
    summary.isp = isp;
    for (const auto& suggestion : around) {
      if (!matrix_.uses(isp, suggestion.target)) continue;
      ++summary.targets_using;
      if (suggestion.optimized_path.empty()) continue;
      pi.add(static_cast<double>(suggestion.path_inflation));
      srr.add(static_cast<double>(suggestion.shared_risk_reduction));
    }
    if (pi.count() > 0) {
      summary.pi_min = pi.min();
      summary.pi_max = pi.max();
      summary.pi_avg = pi.mean();
      summary.srr_min = srr.min();
      summary.srr_max = srr.max();
      summary.srr_avg = srr.mean();
    }
    out.push_back(summary);
  }
  return out;
}

std::vector<PeeringSuggestion> RobustnessPlanner::suggest_peering(
    const std::vector<ConduitId>& targets, std::size_t count) const {
  const auto around = reroutes(targets);
  std::vector<PeeringSuggestion> out;
  for (IspId isp = 0; isp < map_.num_isps(); ++isp) {
    // Score candidate peers by how much low-risk capacity they would lend
    // across all optimized paths for this ISP's shared targets.
    std::vector<double> score(map_.num_isps(), 0.0);
    for (const auto& suggestion : around) {
      if (!matrix_.uses(isp, suggestion.target)) continue;
      for (ConduitId cid : suggestion.optimized_path) {
        if (matrix_.uses(isp, cid)) continue;  // already on net
        const auto& tenants = map_.conduit(cid).tenants;
        if (tenants.empty()) continue;
        // Credit each tenant, weighting sparsely-shared conduits higher
        // (a peer that owns a quiet path is a better peer).
        const double credit = 1.0 / static_cast<double>(tenants.size());
        for (IspId t : tenants) {
          if (t != isp) score[t] += credit;
        }
      }
    }
    PeeringSuggestion suggestion;
    suggestion.isp = isp;
    std::vector<IspId> order;
    for (IspId t = 0; t < map_.num_isps(); ++t) {
      if (score[t] > 0.0) order.push_back(t);
    }
    std::sort(order.begin(), order.end(), [&score](IspId x, IspId y) {
      if (score[x] != score[y]) return score[x] > score[y];
      return x < y;
    });
    if (order.size() > count) order.resize(count);
    suggestion.suggested = std::move(order);
    out.push_back(std::move(suggestion));
  }
  return out;
}

NetworkWideGain RobustnessPlanner::network_wide_gain(std::size_t top_count) const {
  NetworkWideGain gain;
  std::vector<char> is_top(map_.conduits().size(), 0);
  for (ConduitId cid : matrix_.most_shared_conduits(top_count)) is_top[cid] = 1;

  const auto lease = engine_.lease_workspace();
  RunningStats top_stats;
  RunningStats rest_stats;
  for (const auto& conduit : map_.conduits()) {
    if (conduit.tenants.empty()) continue;
    ++gain.conduits_evaluated;
    const auto suggestion = reroute(conduit.id, *lease);
    double srr = 0.0;
    if (suggestion.optimized_path.empty()) {
      // No alternate route exists (a bridge conduit): "cannot reroute" is
      // not "optimal".  It still contributes 0 to the SRR averages,
      // matching the attainable gain.
      ++gain.unreachable;
    } else {
      srr = std::max(0, suggestion.shared_risk_reduction);
      if (srr <= 0.0) ++gain.already_optimal;
    }
    (is_top[conduit.id] ? top_stats : rest_stats).add(srr);
  }
  gain.avg_srr_top = top_stats.mean();
  gain.avg_srr_rest = rest_stats.mean();
  return gain;
}

RerouteSuggestion suggest_reroute(const FiberMap& map, const risk::RiskMatrix& matrix,
                                  ConduitId target, IspId isp) {
  return RobustnessPlanner(map, matrix).suggest_reroute(target, isp);
}

std::vector<IspRobustnessSummary> summarize_robustness(const FiberMap& map,
                                                       const risk::RiskMatrix& matrix,
                                                       const std::vector<ConduitId>& targets) {
  return RobustnessPlanner(map, matrix).summarize_robustness(targets);
}

std::vector<PeeringSuggestion> suggest_peering(const FiberMap& map,
                                               const risk::RiskMatrix& matrix,
                                               const std::vector<ConduitId>& targets,
                                               std::size_t count) {
  return RobustnessPlanner(map, matrix).suggest_peering(targets, count);
}

NetworkWideGain network_wide_gain(const FiberMap& map, const risk::RiskMatrix& matrix,
                                  std::size_t top_count) {
  return RobustnessPlanner(map, matrix).network_wide_gain(top_count);
}

}  // namespace intertubes::optimize
