#include "risk/cuts.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <queue>

#include "sim/campaign.hpp"
#include "util/check.hpp"

namespace intertubes::risk {

using core::ConduitId;
using core::FiberMap;
using transport::CityId;

std::vector<ConduitId> bridge_conduits(const FiberMap& map) {
  const std::size_t n = map.nodes().size();
  const auto ends = map.conduit_node_indexes();
  std::vector<std::vector<std::pair<std::uint32_t, ConduitId>>> adjacency(n);
  for (ConduitId cid = 0; cid < ends.size(); ++cid) {
    adjacency[ends[cid].first].emplace_back(ends[cid].second, cid);
    adjacency[ends[cid].second].emplace_back(ends[cid].first, cid);
  }
  // Iterative Tarjan bridge finding over the multigraph: an edge is a
  // bridge iff low[v] > disc[u] for tree edge u→v, where parallel edges
  // are distinguished by conduit id.
  std::vector<int> disc(n, -1);
  std::vector<int> low(n, 0);
  std::vector<ConduitId> bridges;
  int timer = 0;

  struct Frame {
    std::size_t u;
    ConduitId via;       // conduit used to enter u (kNoConduit at roots)
    std::size_t next = 0;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (disc[root] != -1) continue;
    std::vector<Frame> stack;
    stack.push_back({root, core::kNoConduit});
    disc[root] = low[root] = timer++;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next < adjacency[frame.u].size()) {
        const auto [v, cid] = adjacency[frame.u][frame.next++];
        if (cid == frame.via) continue;  // don't traverse the entry conduit backwards
        if (disc[v] == -1) {
          disc[v] = low[v] = timer++;
          stack.push_back({v, cid});
        } else {
          low[frame.u] = std::min(low[frame.u], disc[v]);
        }
      } else {
        const Frame done = frame;
        stack.pop_back();
        if (!stack.empty()) {
          Frame& parent = stack.back();
          low[parent.u] = std::min(low[parent.u], low[done.u]);
          if (low[done.u] > disc[parent.u]) bridges.push_back(done.via);
        }
      }
    }
  }
  std::sort(bridges.begin(), bridges.end());
  return bridges;
}

namespace {

/// Each trial's damage curve over failure counts 0..max_failures (clamped
/// to the conduit count), read by the campaign engine.  MostSharedFirst is
/// the engine's one targeted trial; Random keeps each curve's own salted
/// shuffle, the stream EXPERIMENTS.md A2 was measured on, and strikes one
/// conduit per step.  Trials fan out over the executor; callers reduce in
/// trial order, so the curves are bit-identical for any thread count.
std::vector<sim::TrialResult> trial_results(const FiberMap& map, FailureStrategy strategy,
                                            std::size_t max_failures, std::size_t trials,
                                            std::uint64_t seed, std::uint64_t salt) {
  const std::size_t num_conduits = map.conduits().size();
  max_failures = std::min(max_failures, num_conduits);
  if (strategy == FailureStrategy::MostSharedFirst) trials = 1;
  IT_CHECK(trials >= 1);

  const sim::CampaignEngine engine(map);
  return sim::default_executor().parallel_map<sim::TrialResult>(trials, [&](std::size_t trial) {
    if (strategy == FailureStrategy::MostSharedFirst) {
      return engine.run_trial(sim::Stressor::targeted_cuts(max_failures), seed, 0);
    }
    std::vector<ConduitId> order(num_conduits);
    std::iota(order.begin(), order.end(), ConduitId{0});
    Rng rng(mix64(seed ^ (salt * (trial + 1))));
    rng.shuffle(order);
    std::vector<std::vector<ConduitId>> cuts(max_failures);
    for (std::size_t f = 0; f < max_failures; ++f) cuts[f].push_back(order[f]);
    return engine.evaluate_cuts(cuts);
  });
}

}  // namespace

std::vector<FailurePoint> failure_curve(const FiberMap& map, FailureStrategy strategy,
                                        std::size_t max_failures, std::size_t trials,
                                        std::uint64_t seed) {
  const auto results = trial_results(map, strategy, max_failures, trials, seed, 0x9e37ULL);
  std::vector<FailurePoint> curve(results.front().points.size());
  for (std::size_t f = 0; f < curve.size(); ++f) curve[f].failed = f;
  for (const auto& result : results) {
    for (std::size_t f = 0; f < curve.size(); ++f) {
      curve[f].connected_pair_fraction += result.points[f].connected_pair_fraction;
      curve[f].components += static_cast<double>(result.points[f].components);
    }
  }
  for (auto& point : curve) {
    point.connected_pair_fraction /= static_cast<double>(results.size());
    point.components /= static_cast<double>(results.size());
  }
  return curve;
}

std::vector<ServiceImpactPoint> service_impact_curve(const FiberMap& map,
                                                     FailureStrategy strategy,
                                                     std::size_t max_failures, std::size_t trials,
                                                     std::uint64_t seed) {
  const auto results = trial_results(map, strategy, max_failures, trials, seed, 0x11c7ULL);
  std::vector<ServiceImpactPoint> curve(results.front().points.size());
  for (std::size_t f = 0; f < curve.size(); ++f) curve[f].failed = f;
  for (const auto& result : results) {
    for (std::size_t f = 0; f < curve.size(); ++f) {
      curve[f].links_hit += static_cast<double>(result.points[f].links_hit);
      curve[f].isps_hit += static_cast<double>(result.points[f].isps_hit);
    }
  }
  for (auto& point : curve) {
    point.links_hit /= static_cast<double>(results.size());
    point.isps_hit /= static_cast<double>(results.size());
  }
  return curve;
}

namespace {

/// Generic unit-capacity undirected max-flow (Edmonds–Karp) over an edge
/// list; nodes are 0..n-1.
std::size_t unit_max_flow(std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges,
                          std::size_t src, std::size_t dst) {
  std::vector<std::vector<std::size_t>> incident(n);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    incident[edges[e].first].push_back(e);
    incident[edges[e].second].push_back(e);
  }
  std::vector<std::int8_t> flow(edges.size(), 0);  // signed, first→second positive
  std::size_t total = 0;
  for (;;) {
    std::vector<std::pair<std::size_t, std::size_t>> parent(n, {SIZE_MAX, SIZE_MAX});
    std::queue<std::size_t> queue;
    queue.push(src);
    parent[src] = {src, SIZE_MAX};
    bool reached = false;
    while (!queue.empty() && !reached) {
      const std::size_t u = queue.front();
      queue.pop();
      for (std::size_t e : incident[u]) {
        const std::size_t v = edges[e].first == u ? edges[e].second : edges[e].first;
        if (parent[v].first != SIZE_MAX) continue;
        const int f = edges[e].first == u ? flow[e] : -flow[e];
        if (1 - f <= 0) continue;
        parent[v] = {u, e};
        if (v == dst) {
          reached = true;
          break;
        }
        queue.push(v);
      }
    }
    if (!reached) break;
    std::size_t cur = dst;
    while (cur != src) {
      const auto [prev, e] = parent[cur];
      flow[e] = static_cast<std::int8_t>(flow[e] + (edges[e].first == prev ? 1 : -1));
      cur = prev;
    }
    ++total;
  }
  return total;
}

}  // namespace

std::size_t min_conduit_cut(const FiberMap& map, CityId s, CityId t) {
  IT_CHECK(s != t);
  return min_conduit_cut_with_undersea(map, {}, s, t);
}

std::size_t min_conduit_cut_with_undersea(const FiberMap& map,
                                          const std::vector<transport::UnderseaCable>& cables,
                                          CityId s, CityId t) {
  // Node set: map nodes plus any cable landing not already in the map.
  std::map<CityId, std::size_t> index;
  for (CityId node : map.nodes()) index.emplace(node, index.size());
  for (const auto& cable : cables) {
    index.emplace(cable.landing_a, index.size());
    index.emplace(cable.landing_b, index.size());
  }
  IT_CHECK_MSG(index.count(s) && index.count(t), "city is not a node of the map or a landing");
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (const auto& conduit : map.conduits()) {
    edges.emplace_back(index.at(conduit.a), index.at(conduit.b));
  }
  for (const auto& cable : cables) {
    edges.emplace_back(index.at(cable.landing_a), index.at(cable.landing_b));
  }
  return unit_max_flow(index.size(), edges, index.at(s), index.at(t));
}

}  // namespace intertubes::risk
