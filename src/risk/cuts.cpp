#include "risk/cuts.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>

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
