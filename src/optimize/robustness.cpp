#include "optimize/robustness.hpp"

#include <algorithm>

#include "sim/executor.hpp"
#include "util/check.hpp"
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

void RobustnessPlanner::ensure_forest(sim::Executor* executor) const {
  std::call_once(forest_once_, [&] {
    std::vector<route::NodeId> sources;
    sources.reserve(map_.conduits().size());
    for (const auto& conduit : map_.conduits()) sources.push_back(conduit.a);
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());

    const route::RouteForest forest = engine_.route_forest(sources, {}, executor);
    around_.resize(map_.conduits().size());
    for (const auto& conduit : map_.conduits()) {
      const auto it = std::lower_bound(sources.begin(), sources.end(), conduit.a);
      const auto row = static_cast<std::size_t>(it - sources.begin());
      route::Path path = forest.path_to(row, conduit.b);
      if (path.reachable && path.edges.size() == 1 && path.edges[0] == conduit.id) {
        // The unmasked optimum IS the target conduit — only here does the
        // mask change the answer, so only here do we pay a point query.
        continue;
      }
      around_[conduit.id] = std::make_shared<const route::Path>(std::move(path));
    }
    forest_built_.store(true, std::memory_order_release);
  });
}

std::shared_ptr<const route::Path> RobustnessPlanner::route_around(ConduitId target) const {
  if (forest_built_.load(std::memory_order_acquire)) {
    if (const auto& cached = around_[target]) return cached;
  }
  const auto& conduit = map_.conduit(target);
  const std::vector<route::EdgeId> mask{target};
  route::Query query;
  query.masked = &mask;
  return std::make_shared<const route::Path>(engine_.shortest_path(conduit.a, conduit.b, query));
}

RerouteSuggestion RobustnessPlanner::build_suggestion(ConduitId target, IspId isp) const {
  RerouteSuggestion suggestion;
  suggestion.target = target;
  suggestion.isp = isp;
  const auto path = route_around(target);
  if (!path->reachable) return suggestion;
  suggestion.optimized_path.assign(path->edges.begin(), path->edges.end());
  suggestion.path_inflation = static_cast<int>(suggestion.optimized_path.size()) - 1;
  std::size_t worst = 0;
  for (ConduitId cid : suggestion.optimized_path) {
    worst = std::max(worst, matrix_.sharing_count(cid));
  }
  suggestion.shared_risk_reduction =
      static_cast<int>(matrix_.sharing_count(target)) - static_cast<int>(worst);
  return suggestion;
}

RerouteSuggestion RobustnessPlanner::suggest_reroute(ConduitId target, IspId isp) const {
  return build_suggestion(target, isp);
}

namespace {

IspRobustnessSummary summarize_one(const RobustnessPlanner& planner,
                                   const risk::RiskMatrix& matrix, IspId isp,
                                   const std::vector<ConduitId>& targets) {
  RunningStats pi;
  RunningStats srr;
  std::size_t used = 0;
  for (ConduitId target : targets) {
    if (!matrix.uses(isp, target)) continue;
    ++used;
    const auto suggestion = planner.suggest_reroute(target, isp);
    if (suggestion.optimized_path.empty()) continue;
    pi.add(static_cast<double>(suggestion.path_inflation));
    srr.add(static_cast<double>(suggestion.shared_risk_reduction));
  }
  IspRobustnessSummary summary;
  summary.isp = isp;
  summary.targets_using = used;
  if (pi.count() > 0) {
    summary.pi_min = pi.min();
    summary.pi_max = pi.max();
    summary.pi_avg = pi.mean();
    summary.srr_min = srr.min();
    summary.srr_max = srr.max();
    summary.srr_avg = srr.mean();
  }
  return summary;
}

}  // namespace

std::vector<IspRobustnessSummary> RobustnessPlanner::summarize_robustness(
    const std::vector<ConduitId>& targets) const {
  ensure_forest(nullptr);
  std::vector<IspRobustnessSummary> out;
  out.reserve(map_.num_isps());
  for (IspId isp = 0; isp < map_.num_isps(); ++isp) {
    out.push_back(summarize_one(*this, matrix_, isp, targets));
  }
  return out;
}

std::vector<IspRobustnessSummary> RobustnessPlanner::summarize_robustness(
    const std::vector<ConduitId>& targets, sim::Executor& executor) const {
  ensure_forest(&executor);
  // Slot i holds ISP i's summary: each summary is a pure function of the
  // per-target suggestions, which are themselves deterministic,
  // so this is bit-identical to the serial overload for any thread count.
  return executor.parallel_map<IspRobustnessSummary>(
      map_.num_isps(),
      [&](std::size_t isp) {
        return summarize_one(*this, matrix_, static_cast<IspId>(isp), targets);
      });
}

std::vector<PeeringSuggestion> RobustnessPlanner::suggest_peering(
    const std::vector<ConduitId>& targets, std::size_t count) const {
  ensure_forest(nullptr);
  std::vector<PeeringSuggestion> out;
  for (IspId isp = 0; isp < map_.num_isps(); ++isp) {
    // Score candidate peers by how much low-risk capacity they would lend
    // across all optimized paths for this ISP's shared targets.
    std::vector<double> score(map_.num_isps(), 0.0);
    for (ConduitId target : targets) {
      if (!matrix_.uses(isp, target)) continue;
      const auto suggestion = suggest_reroute(target, isp);
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

namespace {

/// Per-conduit observation for the network-wide sweep; folded in conduit
/// order so parallel and serial accumulation are bit-identical.
struct GainObservation {
  bool evaluated = false;
  bool unreachable = false;
  bool already_optimal = false;
  double srr = 0.0;
};

GainObservation observe_conduit(const RobustnessPlanner& planner, const core::Conduit& conduit) {
  GainObservation obs;
  if (conduit.tenants.empty()) return obs;
  obs.evaluated = true;
  const auto suggestion = planner.suggest_reroute(conduit.id, conduit.tenants.front());
  if (suggestion.optimized_path.empty()) {
    // No alternate route exists (a bridge conduit): "cannot reroute" is
    // not "optimal".  It still contributes 0 to the SRR averages, matching
    // the attainable gain.
    obs.unreachable = true;
    return obs;
  }
  obs.srr = std::max(0, suggestion.shared_risk_reduction);
  obs.already_optimal = obs.srr <= 0.0;
  return obs;
}

NetworkWideGain fold_gain(const FiberMap& map, const risk::RiskMatrix& matrix,
                          std::size_t top_count, const std::vector<GainObservation>& obs) {
  NetworkWideGain gain;
  const auto top = matrix.most_shared_conduits(top_count);
  std::vector<char> is_top(map.conduits().size(), 0);
  for (ConduitId cid : top) is_top[cid] = 1;

  RunningStats top_stats;
  RunningStats rest_stats;
  for (ConduitId cid = 0; cid < obs.size(); ++cid) {
    if (!obs[cid].evaluated) continue;
    ++gain.conduits_evaluated;
    if (obs[cid].unreachable) ++gain.unreachable;
    if (obs[cid].already_optimal) ++gain.already_optimal;
    if (is_top[cid]) {
      top_stats.add(obs[cid].srr);
    } else {
      rest_stats.add(obs[cid].srr);
    }
  }
  gain.avg_srr_top = top_stats.mean();
  gain.avg_srr_rest = rest_stats.mean();
  return gain;
}

}  // namespace

NetworkWideGain RobustnessPlanner::network_wide_gain(std::size_t top_count) const {
  ensure_forest(nullptr);
  std::vector<GainObservation> obs;
  obs.reserve(map_.conduits().size());
  for (const auto& conduit : map_.conduits()) {
    obs.push_back(observe_conduit(*this, conduit));
  }
  return fold_gain(map_, matrix_, top_count, obs);
}

NetworkWideGain RobustnessPlanner::network_wide_gain(std::size_t top_count,
                                                     sim::Executor& executor) const {
  ensure_forest(&executor);
  const auto obs = executor.parallel_map<GainObservation>(
      map_.conduits().size(),
      [&](std::size_t cid) { return observe_conduit(*this, map_.conduits()[cid]); });
  return fold_gain(map_, matrix_, top_count, obs);
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
