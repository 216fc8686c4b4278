#include "dissect/gap_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/geo_point.hpp"
#include "geo/latency.hpp"
#include "route/path_engine.hpp"
#include "sim/executor.hpp"
#include "util/check.hpp"

namespace intertubes::dissect {

namespace {

/// One pair the optimizer is trying to pull under target.  Distances stay
/// in km (the engine's weight unit); the target is pre-converted to km so
/// candidate scoring is a pure min/compare over matrix cells.
struct GapPair {
  std::size_t i = 0;         ///< source row of endpoint a
  std::size_t j = 0;         ///< source row of endpoint b
  double target_km = 0.0;    ///< target_factor x c-latency, in fiber-km
  double excess_ms = 0.0;    ///< current excess above target
};

double excess_of(double d_km, double target_km, double unreachable_excess_ms) {
  if (!std::isfinite(d_km)) return unreachable_excess_ms;
  return std::max(0.0, geo::fiber_delay_ms(d_km - target_km));
}

}  // namespace

GapClosingResult close_gaps(const core::FiberMap& map, const transport::CityDatabase& cities,
                            const transport::RightOfWayRegistry& row,
                            const GapClosingParams& params, sim::Executor* executor) {
  IT_CHECK(params.target_factor >= 1.0);

  std::vector<transport::CityId> nodes = map.nodes();
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  const std::size_t n = nodes.size();
  const std::vector<route::NodeId> sources(nodes.begin(), nodes.end());

  // target in km: fiber covering target_factor x c_latency_ms of delay.
  // (c-latency converts back through the glass constant so all comparisons
  // happen in the engine's km domain.)
  std::vector<double> target_km(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double gc_km =
          geo::distance_km(cities.city(nodes[i]).location, cities.city(nodes[j]).location);
      target_km[i * n + j] =
          geo::fiber_km_for_ms(params.target_factor * geo::c_latency_ms(gc_km));
    }
  }

  // The unlit-corridor inventory: every right-of-way corridor that holds
  // no conduit yet is a trenching candidate.
  std::vector<transport::CorridorId> candidates;
  for (const auto& corridor : row.corridors()) {
    if (!map.conduit_for_corridor(corridor.id).has_value()) candidates.push_back(corridor.id);
  }

  std::vector<route::EdgeSpec> edges;
  edges.reserve(map.conduits().size() + params.max_k);
  for (const auto& conduit : map.conduits()) {
    edges.push_back({conduit.a, conduit.b, conduit.length_km});
  }

  GapClosingResult result;
  for (;;) {
    // Exact state of the current build: one batched sweep, then the gap
    // list.
    const route::PathEngine engine(static_cast<route::NodeId>(cities.size()), edges);
    const route::DistanceMatrix rows = engine.distance_rows(sources, {}, executor);

    std::vector<GapPair> gaps;
    double total_excess = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double t = target_km[i * n + j];
        const double e = excess_of(rows.at(i, nodes[j]), t, params.unreachable_excess_ms);
        if (e <= 0.0) continue;
        total_excess += e;
        gaps.push_back({i, j, t, e});
      }
    }

    if (result.steps.empty()) {
      result.excess_ms_before = total_excess;
      result.gap_pairs_before = gaps.size();
    } else {
      result.steps.back().excess_ms = total_excess;
      result.steps.back().gap_pairs = gaps.size();
    }
    result.excess_ms_after = total_excess;
    result.gap_pairs_after = gaps.size();
    if (result.steps.size() >= params.max_k || gaps.empty() || candidates.empty()) break;

    // Score every candidate exactly via the one-new-edge identity.  The
    // score vector is in candidate order regardless of thread count; the
    // argmax below is serial, so the pick is deterministic.
    const auto score_candidate = [&](std::size_t c) {
      const auto& corridor = row.corridor(candidates[c]);
      const route::NodeId u = corridor.a;
      const route::NodeId v = corridor.b;
      const double len = corridor.length_km;
      double gain = 0.0;
      for (const GapPair& g : gaps) {
        const double via_uv = rows.at(g.i, u) + len + rows.at(g.j, v);
        const double via_vu = rows.at(g.i, v) + len + rows.at(g.j, u);
        const double new_d =
            std::min(rows.at(g.i, nodes[g.j]), std::min(via_uv, via_vu));
        gain += g.excess_ms - excess_of(new_d, g.target_km, params.unreachable_excess_ms);
      }
      return gain;
    };
    std::vector<double> gains;
    if (executor == nullptr) {
      gains.resize(candidates.size());
      for (std::size_t c = 0; c < candidates.size(); ++c) gains[c] = score_candidate(c);
    } else {
      gains = executor->parallel_map<double>(candidates.size(), score_candidate);
    }

    std::size_t best = candidates.size();
    double best_score = 0.0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const double cost =
          params.cost_weight * geo::fiber_delay_ms(row.corridor(candidates[c]).length_km);
      const double score = gains[c] - cost;
      // Strict > keeps the first (lowest corridor id) among exact ties.
      if (score > 0.0 && score > best_score) {
        best = c;
        best_score = score;
      }
    }
    if (best == candidates.size()) break;  // nothing pays for its trench

    const auto& won = row.corridor(candidates[best]);
    edges.push_back({won.a, won.b, won.length_km});
    result.steps.push_back({won.id, won.length_km, 0.0, 0});
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(best));
  }
  return result;
}

}  // namespace intertubes::dissect
