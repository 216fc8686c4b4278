#include "cascade/cascade.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "sim/executor.hpp"
#include "util/check.hpp"
#include "util/connectivity.hpp"

namespace intertubes::cascade {

using core::ConduitId;
using route::NodeId;

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
}

std::vector<StructuralMetrics> CascadeEngine::structure_by_step(
    const std::vector<std::uint32_t>& first_death, std::size_t last_step) const {
  std::vector<StructuralMetrics> steps(last_step + 1);
  Connectivity sets;
  const std::size_t n = campaign_.num_nodes();
  if (n >= 2) {
    const auto& ends = campaign_.conduit_ends();
    sets.read_steps_in_reverse(
        n, first_death, last_step, [&ends](std::uint32_t cid) { return ends[cid]; },
        [&steps, n](std::size_t s, const Connectivity& graph) {
          steps[s].giant_component =
              static_cast<double>(graph.largest()) / static_cast<double>(n);
        });
  }
  if (!l3_) return steps;

  // An L3 edge dies with the first conduit under it; peering edges (no
  // conduit) never die.
  const auto& edges = l3_->edges();
  std::vector<std::uint32_t> edge_death(edges.size(), kNeverDies);
  std::vector<std::size_t> dead_edges(last_step + 1, 0);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    for (ConduitId cid : l3_edge_conduits_[e]) {
      edge_death[e] = std::min(edge_death[e], first_death[cid]);
    }
    if (edge_death[e] != kNeverDies) ++dead_edges[edge_death[e]];
  }
  for (std::size_t s = 1; s <= last_step; ++s) dead_edges[s] += dead_edges[s - 1];
  sets.read_steps_in_reverse(
      l3_->routers().size(), edge_death, last_step,
      [&edges](std::uint32_t e) { return std::pair{edges[e].u, edges[e].v}; },
      [&](std::size_t s, const Connectivity& graph) {
        steps[s].l3_edges_dead = edges.empty() ? 0.0
                                               : static_cast<double>(dead_edges[s]) /
                                                     static_cast<double>(edges.size());
        steps[s].l3_reachability = graph.pair_fraction();
      });
  return steps;
}

StructuralMetrics CascadeEngine::evaluate_structure(const std::vector<ConduitId>& cuts) const {
  std::vector<std::uint32_t> first_death(map_.conduits().size(), kNeverDies);
  for (ConduitId cid : cuts) {
    IT_CHECK(cid < first_death.size());
    first_death[cid] = 0;
  }
  return structure_by_step(first_death, 0).front();
}

CascadeOutcome CascadeEngine::run_cascade(const std::vector<ConduitId>& cuts,
                                          const CascadeParams& params) const {
  const std::size_t num_conduits = map_.conduits().size();
  // The round each conduit died in (kNeverDies while alive).  The
  // structure of every round is read from it after the last round, in one
  // reverse pass.
  std::vector<std::uint32_t> first_death(num_conduits, kNeverDies);
  for (ConduitId cid : cuts) {
    IT_CHECK(cid < num_conduits);
    first_death[cid] = 0;
  }
  const auto dead = [&first_death](ConduitId cid) { return first_death[cid] != kNeverDies; };

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
    return std::any_of(ids.begin(), ids.end(), dead);
  };

  for (std::size_t round = 0;; ++round) {
    dead_ids.clear();
    for (ConduitId c = 0; c < num_conduits; ++c) {
      if (dead(c)) dead_ids.push_back(c);  // ascending — the mask contract
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
      if (!dead(c) && load[c] > capacity[c]) overloaded.push_back(c);
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
      first_death[c] = static_cast<std::uint32_t>(round + 1);
      outcome.overload_failures.push_back(c);
    }
  }

  const auto structure = structure_by_step(first_death, outcome.rounds.size() - 1);
  for (std::size_t round = 0; round < outcome.rounds.size(); ++round) {
    outcome.rounds[round].giant_component = structure[round].giant_component;
    outcome.rounds[round].l3_edges_dead = structure[round].l3_edges_dead;
    outcome.rounds[round].l3_reachability = structure[round].l3_reachability;
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
    // A conduit dies at the first grid point whose threshold its event
    // was drawn for; the structure at every grid point comes from one
    // reverse pass.
    std::vector<std::uint32_t> first_death(num_conduits, kNeverDies);
    std::size_t dead_count = 0;
    std::size_t next_event = 0;
    TrialCurve curve(config.resolution + 1);
    for (std::size_t k = 0; k <= config.resolution; ++k) {
      const std::size_t threshold =
          (k * num_conduits + config.resolution - 1) / config.resolution;  // ceil
      while (dead_count < threshold && next_event < cut_sets.size()) {
        for (ConduitId cid : cut_sets[next_event]) {
          if (first_death[cid] == kNeverDies) {
            first_death[cid] = static_cast<std::uint32_t>(k);
            ++dead_count;
          }
        }
        ++next_event;
      }
      curve[k][0] = num_conduits == 0
                        ? 0.0
                        : static_cast<double>(dead_count) / static_cast<double>(num_conduits);
    }
    const auto structure = structure_by_step(first_death, config.resolution);
    for (std::size_t k = 0; k <= config.resolution; ++k) {
      curve[k][1] = structure[k].giant_component;
      curve[k][2] = structure[k].l3_edges_dead;
      curve[k][3] = structure[k].l3_reachability;
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
