#include "risk/cuts.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "sim/executor.hpp"
#include "util/check.hpp"
#include "util/connectivity.hpp"

namespace intertubes::risk {

using core::ConduitId;
using core::FiberMap;
using transport::CityId;

namespace {

/// Compact city-index view of the map's conduit graph.
struct Graph {
  std::vector<CityId> cities;                       // index → city
  std::map<CityId, std::size_t> index_of;           // city → index
  std::vector<std::vector<std::pair<std::size_t, ConduitId>>> adjacency;

  explicit Graph(const FiberMap& map) {
    for (CityId node : map.nodes()) {
      index_of[node] = cities.size();
      cities.push_back(node);
    }
    adjacency.resize(cities.size());
    for (const auto& conduit : map.conduits()) {
      const std::size_t u = index_of.at(conduit.a);
      const std::size_t v = index_of.at(conduit.b);
      adjacency[u].emplace_back(v, conduit.id);
      adjacency[v].emplace_back(u, conduit.id);
    }
  }
};

}  // namespace

std::vector<ConduitId> bridge_conduits(const FiberMap& map) {
  const Graph graph(map);
  const std::size_t n = graph.cities.size();
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
      if (frame.next < graph.adjacency[frame.u].size()) {
        const auto [v, cid] = graph.adjacency[frame.u][frame.next++];
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

std::vector<FailurePoint> failure_curve(const FiberMap& map, FailureStrategy strategy,
                                        std::size_t max_failures, std::size_t trials,
                                        std::uint64_t seed) {
  const std::size_t num_conduits = map.conduits().size();
  if (num_conduits == 0) {
    // Degenerate map: one baseline point (no nodes, nothing to cut)
    // instead of looping over an empty conduit pool.
    FailurePoint base;
    base.connected_pair_fraction = 1.0;
    base.components = 0.0;
    return {base};
  }
  const std::size_t num_nodes = map.nodes().size();
  const auto ends = map.conduit_node_indexes();
  max_failures = std::min(max_failures, num_conduits);
  if (strategy == FailureStrategy::MostSharedFirst) trials = 1;
  IT_CHECK(trials >= 1);

  // Trials are independent (per-trial RNG substream, unchanged from the
  // historical serial derivation), so they fan out over the executor; the
  // reduction below runs in trial order, keeping the result bit-identical
  // to the serial loop for any thread count.
  const auto trial_curves = sim::default_executor().parallel_map<std::vector<FailurePoint>>(
      trials, [&](std::size_t trial) {
        std::vector<ConduitId> order(num_conduits);
        for (ConduitId c = 0; c < num_conduits; ++c) order[c] = c;
        if (strategy == FailureStrategy::Random) {
          Rng rng(mix64(seed ^ (0x9e37ULL * (trial + 1))));
          rng.shuffle(order);
        } else {
          std::stable_sort(order.begin(), order.end(), [&map](ConduitId x, ConduitId y) {
            return map.conduit(x).tenants.size() > map.conduit(y).tenants.size();
          });
        }

        // The f-th conduit of the order dies at failure count f; every
        // count is read from one reverse union-find pass.
        std::vector<std::uint32_t> first_death(num_conduits, kNeverDies);
        for (std::size_t f = 1; f <= max_failures; ++f) {
          first_death[order[f - 1]] = static_cast<std::uint32_t>(f);
        }
        std::vector<FailurePoint> partial(max_failures + 1);
        Connectivity sets;
        sets.read_steps_in_reverse(
            num_nodes, first_death, max_failures,
            [&ends](std::uint32_t cid) { return ends[cid]; },
            [&partial](std::size_t f, const Connectivity& graph) {
              partial[f].connected_pair_fraction = graph.pair_fraction();
              partial[f].components = static_cast<double>(graph.components());
            });
        return partial;
      });

  std::vector<FailurePoint> curve(max_failures + 1);
  for (std::size_t f = 0; f <= max_failures; ++f) curve[f].failed = f;
  for (const auto& partial : trial_curves) {
    for (std::size_t f = 0; f <= max_failures; ++f) {
      curve[f].connected_pair_fraction += partial[f].connected_pair_fraction;
      curve[f].components += partial[f].components;
    }
  }
  for (auto& point : curve) {
    point.connected_pair_fraction /= static_cast<double>(trials);
    point.components /= static_cast<double>(trials);
  }
  return curve;
}

std::vector<ServiceImpactPoint> service_impact_curve(const FiberMap& map,
                                                     FailureStrategy strategy,
                                                     std::size_t max_failures, std::size_t trials,
                                                     std::uint64_t seed) {
  const std::size_t num_conduits = map.conduits().size();
  if (num_conduits == 0) return {ServiceImpactPoint{}};  // baseline only
  max_failures = std::min(max_failures, num_conduits);
  if (strategy == FailureStrategy::MostSharedFirst) trials = 1;
  IT_CHECK(trials >= 1);

  // links_using[cid] — link ids traversing each conduit.
  std::vector<std::vector<core::LinkId>> links_using(num_conduits);
  for (const auto& link : map.links()) {
    for (ConduitId cid : link.conduits) links_using[cid].push_back(link.id);
  }

  // Same fan-out/ordered-reduction scheme as failure_curve.
  const auto trial_curves =
      sim::default_executor().parallel_map<std::vector<ServiceImpactPoint>>(
          trials, [&](std::size_t trial) {
            std::vector<ConduitId> order(num_conduits);
            for (ConduitId c = 0; c < num_conduits; ++c) order[c] = c;
            if (strategy == FailureStrategy::Random) {
              Rng rng(mix64(seed ^ (0x11c7ULL * (trial + 1))));
              rng.shuffle(order);
            } else {
              std::stable_sort(order.begin(), order.end(), [&map](ConduitId x, ConduitId y) {
                return map.conduit(x).tenants.size() > map.conduit(y).tenants.size();
              });
            }

            std::vector<ServiceImpactPoint> partial(max_failures + 1);
            std::vector<char> link_hit(map.links().size(), 0);
            std::vector<char> isp_hit(map.num_isps(), 0);
            std::size_t links_hit = 0;
            std::size_t isps_hit = 0;
            for (std::size_t f = 0; f <= max_failures; ++f) {
              if (f > 0) {
                for (core::LinkId lid : links_using[order[f - 1]]) {
                  if (!link_hit[lid]) {
                    link_hit[lid] = 1;
                    ++links_hit;
                    const auto isp = map.link(lid).isp;
                    if (!isp_hit[isp]) {
                      isp_hit[isp] = 1;
                      ++isps_hit;
                    }
                  }
                }
              }
              partial[f].links_hit = static_cast<double>(links_hit);
              partial[f].isps_hit = static_cast<double>(isps_hit);
            }
            return partial;
          });

  std::vector<ServiceImpactPoint> curve(max_failures + 1);
  for (std::size_t f = 0; f <= max_failures; ++f) curve[f].failed = f;
  for (const auto& partial : trial_curves) {
    for (std::size_t f = 0; f <= max_failures; ++f) {
      curve[f].links_hit += partial[f].links_hit;
      curve[f].isps_hit += partial[f].isps_hit;
    }
  }
  for (auto& point : curve) {
    point.links_hit /= static_cast<double>(trials);
    point.isps_hit /= static_cast<double>(trials);
  }
  return curve;
}

std::size_t min_conduit_cut(const FiberMap& map, CityId s, CityId t) {
  const Graph graph(map);
  IT_CHECK_MSG(graph.index_of.count(s) && graph.index_of.count(t),
               "city is not a node of the map");
  const std::size_t src = graph.index_of.at(s);
  const std::size_t dst = graph.index_of.at(t);
  IT_CHECK(src != dst);

  // Unit-capacity Edmonds–Karp: residual capacity per (conduit, direction).
  const std::size_t num_conduits = map.conduits().size();
  std::vector<std::int8_t> flow(num_conduits, 0);  // -1, 0, +1 (a→b positive)

  auto residual = [&](std::size_t from, const std::pair<std::size_t, ConduitId>& edge) {
    const auto& conduit = map.conduit(edge.second);
    const bool forward = graph.index_of.at(conduit.a) == from;
    // Capacity 1 each way minus current signed flow.
    const int f = forward ? flow[edge.second] : -flow[edge.second];
    return 1 - f;
  };

  std::size_t max_flow = 0;
  for (;;) {
    // BFS for an augmenting path.
    std::vector<std::pair<std::size_t, ConduitId>> parent(
        graph.cities.size(), {SIZE_MAX, core::kNoConduit});
    std::queue<std::size_t> queue;
    queue.push(src);
    parent[src] = {src, core::kNoConduit};
    bool reached = false;
    while (!queue.empty() && !reached) {
      const std::size_t u = queue.front();
      queue.pop();
      for (const auto& edge : graph.adjacency[u]) {
        if (parent[edge.first].first != SIZE_MAX) continue;
        if (residual(u, edge) <= 0) continue;
        parent[edge.first] = {u, edge.second};
        if (edge.first == dst) {
          reached = true;
          break;
        }
        queue.push(edge.first);
      }
    }
    if (!reached) break;
    // Augment by one unit along the path.
    std::size_t cur = dst;
    while (cur != src) {
      const auto [prev, cid] = parent[cur];
      const auto& conduit = map.conduit(cid);
      const bool forward = graph.index_of.at(conduit.a) == prev;
      flow[cid] = static_cast<std::int8_t>(flow[cid] + (forward ? 1 : -1));
      cur = prev;
    }
    ++max_flow;
  }
  return max_flow;
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
