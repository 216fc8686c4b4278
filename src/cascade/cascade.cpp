#include "cascade/cascade.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <span>

#include "sim/executor.hpp"
#include "util/check.hpp"

namespace intertubes::cascade {

using core::ConduitId;
using route::NodeId;

namespace {

class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }
  std::uint32_t size_of(std::uint32_t root) const { return size_[root]; }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

/// Fraction of unordered pairs connected given per-root component sizes.
double connected_pair_fraction(DisjointSets& ds, std::size_t n) {
  if (n < 2) return 1.0;
  double connected = 0.0;
  for (std::uint32_t x = 0; x < n; ++x) {
    if (ds.find(x) != x) continue;
    const double s = ds.size_of(x);
    connected += s * (s - 1.0) / 2.0;
  }
  const double total = static_cast<double>(n) * (static_cast<double>(n) - 1.0) / 2.0;
  return connected / total;
}

}  // namespace

CascadeEngine::CascadeEngine(const core::FiberMap& map, const traceroute::L3Topology* l3,
                             const transport::CityDatabase* cities,
                             const transport::RightOfWayRegistry* row,
                             std::shared_ptr<const route::PathEngine> engine,
                             const std::vector<double>* demand_weights)
    : map_(map), l3_(l3), engine_(std::move(engine)), campaign_(map, cities, row) {
  if (demand_weights) {
    IT_CHECK_MSG(demand_weights->size() == map.links().size(),
                 "demand_weights must be indexed by LinkId");
  }
  const std::size_t num_conduits = map.conduits().size();

  if (!engine_) {
    NodeId top = 0;
    std::vector<route::EdgeSpec> edges;
    edges.reserve(num_conduits);
    for (const auto& conduit : map.conduits()) {
      edges.push_back({conduit.a, conduit.b, conduit.length_km});
      top = std::max({top, conduit.a, conduit.b});
    }
    for (const auto& link : map.links()) top = std::max({top, link.a, link.b});
    const NodeId num_nodes = (num_conduits == 0 && map.links().empty()) ? 0 : top + 1;
    engine_ = std::make_shared<const route::PathEngine>(num_nodes, std::move(edges));
  }
  // The overload rounds mask *conduit ids* out of the engine, so the
  // shared engine must use the id-preserving layout (edge id == conduit
  // id, one edge per conduit).
  IT_CHECK_MSG(engine_->num_edges() == num_conduits,
               "cascade engine needs edge ids == conduit ids");

  demands_.reserve(map.links().size());
  baseline_load_.assign(num_conduits, 0.0);
  for (const auto& link : map.links()) {
    IT_CHECK(link.a < engine_->num_nodes() && link.b < engine_->num_nodes());
    Demand demand;
    demand.a = link.a;
    demand.b = link.b;
    demand.isp = link.isp;
    demand.link = link.id;
    if (demand_weights) {
      demand.weight = (*demand_weights)[link.id];
      IT_CHECK_MSG(demand.weight > 0.0, "demand weights must be positive");
    }
    for (ConduitId cid : link.conduits) {
      demand.baseline_km += map.conduit(cid).length_km;
      baseline_load_[cid] += demand.weight;
    }
    total_weight_ += demand.weight;
    demands_.push_back(demand);
  }

  if (l3_) {
    l3_edge_conduits_.reserve(l3_->edges().size());
    for (const auto& edge : l3_->edges()) {
      std::vector<ConduitId> under;
      for (transport::CorridorId corridor : edge.corridors) {
        if (auto cid = map.conduit_for_corridor(corridor)) under.push_back(*cid);
      }
      l3_edge_conduits_.push_back(std::move(under));
    }
  }

  std::map<transport::CityId, std::uint32_t> index_of;
  for (transport::CityId node : map.nodes()) {
    index_of.emplace(node, static_cast<std::uint32_t>(index_of.size()));
  }
  adjacency_.resize(index_of.size());
  for (const auto& conduit : map.conduits()) {
    const std::uint32_t u = index_of.at(conduit.a);
    const std::uint32_t v = index_of.at(conduit.b);
    adjacency_[u].emplace_back(v, conduit.id);
    adjacency_[v].emplace_back(u, conduit.id);
  }
}

StructuralMetrics CascadeEngine::structure_of(const std::vector<char>& dead) const {
  StructuralMetrics metrics;

  const std::size_t n = adjacency_.size();
  if (n >= 2) {
    std::vector<char> visited(n, 0);
    std::vector<std::uint32_t> stack;
    std::size_t giant = 0;
    for (std::uint32_t start = 0; start < n; ++start) {
      if (visited[start]) continue;
      std::size_t size = 0;
      stack.assign(1, start);
      visited[start] = 1;
      while (!stack.empty()) {
        const std::uint32_t u = stack.back();
        stack.pop_back();
        ++size;
        for (const auto& [v, cid] : adjacency_[u]) {
          if (dead[cid] || visited[v]) continue;
          visited[v] = 1;
          stack.push_back(v);
        }
      }
      giant = std::max(giant, size);
    }
    metrics.giant_component = static_cast<double>(giant) / static_cast<double>(n);
  }

  if (!l3_) return metrics;
  const auto& edges = l3_->edges();
  const std::size_t num_routers = l3_->routers().size();
  DisjointSets ds(num_routers);
  std::size_t dead_edges = 0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    bool edge_dead = false;
    for (ConduitId cid : l3_edge_conduits_[e]) {
      if (dead[cid]) {
        edge_dead = true;
        break;
      }
    }
    if (edge_dead) {
      ++dead_edges;
    } else {
      ds.unite(edges[e].u, edges[e].v);
    }
  }
  metrics.l3_edges_dead =
      edges.empty() ? 0.0 : static_cast<double>(dead_edges) / static_cast<double>(edges.size());
  metrics.l3_reachability = connected_pair_fraction(ds, num_routers);
  return metrics;
}

StructuralMetrics CascadeEngine::evaluate_structure(const std::vector<ConduitId>& cuts) const {
  std::vector<char> dead(map_.conduits().size(), 0);
  for (ConduitId cid : cuts) {
    IT_CHECK(cid < dead.size());
    dead[cid] = 1;
  }
  return structure_of(dead);
}

CascadeOutcome CascadeEngine::run_cascade(const std::vector<ConduitId>& cuts,
                                          const CascadeParams& params) const {
  const std::size_t num_conduits = map_.conduits().size();
  std::vector<char> dead(num_conduits, 0);
  for (ConduitId cid : cuts) {
    IT_CHECK(cid < num_conduits);
    dead[cid] = 1;
  }

  std::vector<double> capacity(num_conduits);
  for (ConduitId c = 0; c < num_conduits; ++c) {
    capacity[c] =
        std::max(params.capacity_floor, (1.0 + params.capacity_margin) * baseline_load_[c]);
  }

  CascadeOutcome outcome;
  outcome.isp_links_lost.assign(map_.num_isps(), 0);

  // A demand rides its chain until a conduit under it dies, then a
  // shortest route over the surviving conduits until a conduit under that
  // route dies, and is lost for good once no route is left.  Routes live
  // leaf to root in one flat edge buffer.  Keeping an unbroken route is
  // exact: the dead set only grows, and masking edges off a canonical tree
  // path leaves that path and its distance the canonical answer (DESIGN.md
  // §18).
  enum class Via : char { Chain, Route, Lost };
  struct State {
    Via via = Via::Chain;
    std::uint32_t offset = 0;  ///< route edges: routes[offset, offset + length)
    std::uint32_t length = 0;
    double km = 0.0;
  };
  std::vector<State> state(demands_.size());
  for (std::size_t i = 0; i < demands_.size(); ++i) state[i].km = demands_[i].baseline_km;
  std::vector<route::EdgeId> routes;
  std::vector<route::EdgeId> kept_routes;
  std::vector<double> load(num_conduits);
  std::vector<ConduitId> dead_ids;
  std::vector<ConduitId> overloaded;
  std::vector<std::pair<NodeId, std::uint32_t>> broken;  // (source, demand)
  std::vector<NodeId> targets;
  dead_ids.reserve(num_conduits);
  overloaded.reserve(num_conduits);
  broken.reserve(demands_.size());
  targets.reserve(demands_.size());
  const auto workspace = engine_->lease_workspace();
  const auto any_dead = [&](const auto& ids) {
    return std::any_of(ids.begin(), ids.end(), [&](auto cid) { return dead[cid] != 0; });
  };

  for (std::size_t round = 0;; ++round) {
    dead_ids.clear();
    for (ConduitId c = 0; c < num_conduits; ++c) {
      if (dead[c]) dead_ids.push_back(c);  // ascending — the mask contract
    }

    // Re-route the demands that lost a conduit since the last round, one
    // search per distinct source that stops at that source's targets.
    broken.clear();
    for (std::size_t i = 0; i < demands_.size(); ++i) {
      const State& s = state[i];
      const bool cut =
          s.via == Via::Chain
              ? any_dead(map_.link(demands_[i].link).conduits)
              : s.via == Via::Route &&
                    any_dead(std::span(routes.data() + s.offset, s.length));
      if (cut) broken.emplace_back(demands_[i].a, static_cast<std::uint32_t>(i));
    }
    std::sort(broken.begin(), broken.end());
    route::Query query;
    query.masked = &dead_ids;
    for (std::size_t group = 0; group < broken.size();) {
      const NodeId source = broken[group].first;
      std::size_t group_end = group;
      targets.clear();
      for (; group_end < broken.size() && broken[group_end].first == source; ++group_end) {
        targets.push_back(demands_[broken[group_end].second].b);
      }
      engine_->search_targets(source, targets, query, *workspace);
      for (; group < group_end; ++group) {
        const std::uint32_t i = broken[group].second;
        State& s = state[i];
        const NodeId to = demands_[i].b;
        if (!workspace->settled(to)) {
          s.via = Via::Lost;
          s.km = std::numeric_limits<double>::infinity();
          continue;
        }
        s.via = Via::Route;
        s.km = workspace->distance(to);
        s.offset = static_cast<std::uint32_t>(routes.size());
        workspace->for_each_path_edge(to, [&](route::EdgeId eid) { routes.push_back(eid); });
        s.length = static_cast<std::uint32_t>(routes.size()) - s.offset;
      }
    }

    // Load sums in a fixed order — intact chains in demand order, then
    // routes in demand order, as when every cut demand was re-routed each
    // round — so weighted sums stay bit-identical.  The route pass also
    // compacts the buffer past the routes just replaced.
    std::fill(load.begin(), load.end(), 0.0);
    for (std::size_t i = 0; i < demands_.size(); ++i) {
      if (state[i].via != Via::Chain) continue;
      for (ConduitId cid : map_.link(demands_[i].link).conduits) load[cid] += demands_[i].weight;
    }
    kept_routes.clear();
    for (std::size_t i = 0; i < demands_.size(); ++i) {
      State& s = state[i];
      if (s.via != Via::Route) continue;
      const auto offset = static_cast<std::uint32_t>(kept_routes.size());
      for (std::uint32_t k = s.offset; k < s.offset + s.length; ++k) {
        load[routes[k]] += demands_[i].weight;
        kept_routes.push_back(routes[k]);
      }
      s.offset = offset;
    }
    routes.swap(kept_routes);

    RoundPoint point;
    point.round = round;
    point.conduits_dead = dead_ids.size();
    point.overload_failed = outcome.overload_failures.size();
    const StructuralMetrics structure = structure_of(dead);
    point.giant_component = structure.giant_component;
    point.l3_edges_dead = structure.l3_edges_dead;
    point.l3_reachability = structure.l3_reachability;
    // Weight-aware delivery and stretch.  Under unit weights these sums
    // are exact integer arithmetic in double, so the curves are
    // bit-identical to the historical count-based aggregation.
    double delivered_weight = 0.0;
    double stretch_sum = 0.0;
    for (std::size_t i = 0; i < demands_.size(); ++i) {
      if (state[i].via == Via::Lost) continue;
      delivered_weight += demands_[i].weight;
      const double baseline = demands_[i].baseline_km > 0.0 ? demands_[i].baseline_km : 1.0;
      stretch_sum += demands_[i].weight * (state[i].km / baseline);
    }
    point.demand_delivered = demands_.empty() ? 1.0 : delivered_weight / total_weight_;
    point.mean_stretch = delivered_weight > 0.0 ? stretch_sum / delivered_weight
                                                : std::numeric_limits<double>::infinity();
    outcome.rounds.push_back(point);

    overloaded.clear();
    for (ConduitId c = 0; c < num_conduits; ++c) {
      if (!dead[c] && load[c] > capacity[c]) overloaded.push_back(c);
    }
    if (overloaded.empty() || round == params.max_rounds) {
      outcome.fixed_point_round = round;
      outcome.converged = overloaded.empty();
      for (std::size_t i = 0; i < demands_.size(); ++i) {
        if (state[i].via == Via::Lost) ++outcome.isp_links_lost[demands_[i].isp];
      }
      break;
    }
    for (ConduitId c : overloaded) {
      dead[c] = 1;
      outcome.overload_failures.push_back(c);
    }
  }
  return outcome;
}

CascadeTrialResult CascadeEngine::run_trial(const CascadeConfig& config, std::size_t trial) const {
  const auto cut_sets = campaign_.draw_cuts(config.stressor, config.seed, trial);
  std::vector<ConduitId> cuts;
  for (const auto& step : cut_sets) cuts.insert(cuts.end(), step.begin(), step.end());
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  CascadeOutcome outcome = run_cascade(cuts, config.params);
  CascadeTrialResult result;
  result.rounds = std::move(outcome.rounds);
  while (result.rounds.size() < config.params.max_rounds + 1) {
    RoundPoint point = result.rounds.back();  // hold the fixed point
    point.round = result.rounds.size();
    result.rounds.push_back(point);
  }
  result.isp_links_lost = std::move(outcome.isp_links_lost);
  return result;
}

CascadeReport CascadeEngine::run(const CascadeConfig& config, sim::Executor* executor) const {
  IT_CHECK(config.trials >= 1);
  CascadeConfig clamped = config;
  if (clamped.stressor.kind != sim::StressorKind::CorrelatedHazards) {
    clamped.stressor.steps = std::min(clamped.stressor.steps, map_.conduits().size());
  }

  std::vector<CascadeTrialResult> trials;
  if (executor) {
    trials = executor->parallel_map<CascadeTrialResult>(
        clamped.trials, [&](std::size_t trial) { return run_trial(clamped, trial); });
  } else {
    trials.reserve(clamped.trials);
    for (std::size_t trial = 0; trial < clamped.trials; ++trial) {
      trials.push_back(run_trial(clamped, trial));
    }
  }

  const std::size_t points = clamped.params.max_rounds + 1;
  const auto series_of = [&](double (*extract)(const RoundPoint&)) {
    std::vector<std::vector<double>> series(trials.size());
    for (std::size_t t = 0; t < trials.size(); ++t) {
      series[t].reserve(points);
      for (const RoundPoint& point : trials[t].rounds) series[t].push_back(extract(point));
    }
    return series;
  };

  CascadeReport report;
  report.stressor = stressor_name(clamped.stressor);
  report.seed = clamped.seed;
  report.trials = clamped.trials;
  report.rounds = clamped.params.max_rounds;
  report.params = clamped.params;
  report.conduits_dead = sim::aggregate_series(
      series_of([](const RoundPoint& p) { return static_cast<double>(p.conduits_dead); }),
      "conduits dead");
  report.overload_failed = sim::aggregate_series(
      series_of([](const RoundPoint& p) { return static_cast<double>(p.overload_failed); }),
      "overload failures");
  report.giant_component = sim::aggregate_series(
      series_of([](const RoundPoint& p) { return p.giant_component; }), "giant component");
  report.l3_edges_dead = sim::aggregate_series(
      series_of([](const RoundPoint& p) { return p.l3_edges_dead; }), "L3 edges dead");
  report.l3_reachability = sim::aggregate_series(
      series_of([](const RoundPoint& p) { return p.l3_reachability; }), "L3 reachability");
  report.demand_delivered = sim::aggregate_series(
      series_of([](const RoundPoint& p) { return p.demand_delivered; }), "demand delivered");
  report.mean_stretch =
      sim::aggregate_series(series_of([](const RoundPoint& p) { return p.mean_stretch; }),
                            "mean stretch", sim::InfPolicy::Exclude);

  std::vector<std::vector<std::uint32_t>> losses(trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) losses[t] = std::move(trials[t].isp_links_lost);
  report.isp_impact = sim::aggregate_isp_impact(losses, map_.num_isps());
  return report;
}

PercolationReport CascadeEngine::percolation(const PercolationConfig& config,
                                             sim::Executor* executor) const {
  IT_CHECK(config.trials >= 1);
  IT_CHECK(config.resolution >= 1);
  const std::size_t num_conduits = map_.conduits().size();

  sim::Stressor stressor;
  stressor.kind = config.adversary;
  stressor.hazard_radius_km = config.hazard_radius_km;
  stressor.steps = config.adversary == sim::StressorKind::CorrelatedHazards
                       ? config.max_hazard_events
                       : num_conduits;

  // One trial = grid-point samples of (dead fraction, structure).
  using TrialCurve = std::vector<std::array<double, 4>>;
  const auto trial_fn = [&](std::size_t trial) {
    const auto cut_sets = campaign_.draw_cuts(stressor, config.seed, trial);
    std::vector<char> dead(num_conduits, 0);
    std::size_t dead_count = 0;
    std::size_t next_event = 0;
    TrialCurve curve;
    curve.reserve(config.resolution + 1);
    for (std::size_t k = 0; k <= config.resolution; ++k) {
      const std::size_t threshold =
          (k * num_conduits + config.resolution - 1) / config.resolution;  // ceil
      while (dead_count < threshold && next_event < cut_sets.size()) {
        for (ConduitId cid : cut_sets[next_event]) {
          if (!dead[cid]) {
            dead[cid] = 1;
            ++dead_count;
          }
        }
        ++next_event;
      }
      const StructuralMetrics structure = structure_of(dead);
      curve.push_back({num_conduits == 0
                           ? 0.0
                           : static_cast<double>(dead_count) / static_cast<double>(num_conduits),
                       structure.giant_component, structure.l3_edges_dead,
                       structure.l3_reachability});
    }
    return curve;
  };

  std::vector<TrialCurve> trials;
  if (executor) {
    trials = executor->parallel_map<TrialCurve>(config.trials, trial_fn);
  } else {
    trials.reserve(config.trials);
    for (std::size_t trial = 0; trial < config.trials; ++trial) trials.push_back(trial_fn(trial));
  }

  const auto series_of = [&](std::size_t component) {
    std::vector<std::vector<double>> series(trials.size());
    for (std::size_t t = 0; t < trials.size(); ++t) {
      series[t].reserve(trials[t].size());
      for (const auto& point : trials[t]) series[t].push_back(point[component]);
    }
    return series;
  };

  PercolationReport report;
  report.adversary = stressor_name(stressor);
  report.seed = config.seed;
  report.trials = config.trials;
  report.resolution = config.resolution;
  report.conduits_dead = sim::aggregate_series(series_of(0), "conduits dead fraction");
  report.giant_component = sim::aggregate_series(series_of(1), "giant component");
  report.l3_edges_dead = sim::aggregate_series(series_of(2), "L3 edges dead");
  report.l3_reachability = sim::aggregate_series(series_of(3), "L3 reachability");
  return report;
}

std::vector<double> traffic_demand_weights(const core::FiberMap& map,
                                           const std::vector<std::uint64_t>& probes_per_conduit) {
  IT_CHECK_MSG(probes_per_conduit.size() == map.conduits().size(),
               "probes_per_conduit must be indexed by ConduitId");
  std::vector<double> weights;
  weights.reserve(map.links().size());
  for (const auto& link : map.links()) {
    std::uint64_t probes = 0;
    for (ConduitId cid : link.conduits) probes += probes_per_conduit[cid];
    weights.push_back(std::max(1.0, std::log2(1.0 + static_cast<double>(probes))));
  }
  return weights;
}

}  // namespace intertubes::cascade
