#include "route/path_engine.hpp"

#include <algorithm>

#include "sim/executor.hpp"
#include "util/check.hpp"

namespace intertubes::route {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

void PathEngine::Workspace::prepare(std::size_t num_nodes, std::size_t num_edges) {
  if (dist_.size() < num_nodes) {
    dist_.resize(num_nodes, kInf);
    via_edge_.resize(num_nodes, kNoEdge);
    via_node_.resize(num_nodes, kNoNode);
    node_gen_.resize(num_nodes, 0);
    heap_pos_.resize(num_nodes, 0);
    target_gen_.resize(num_nodes, 0);
  }
  if (mask_gen_.size() < num_edges) mask_gen_.resize(num_edges, 0);
  heap_.clear();
  ++generation_;
}

PathEngine::PathEngine(NodeId num_nodes, std::vector<EdgeSpec> edges)
    : num_nodes_(num_nodes), edges_(std::move(edges)) {
  for (const EdgeSpec& e : edges_) {
    IT_CHECK(e.a < num_nodes_ && e.b < num_nodes_);
  }
  // Counting sort of the 2|E| incidences into CSR rows.
  offsets_.assign(num_nodes_ + 1, 0);
  for (const EdgeSpec& e : edges_) {
    ++offsets_[e.a + 1];
    ++offsets_[e.b + 1];
  }
  for (std::size_t u = 0; u < num_nodes_; ++u) offsets_[u + 1] += offsets_[u];
  targets_.resize(2 * edges_.size());
  edge_ids_.resize(2 * edges_.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId id = 0; id < edges_.size(); ++id) {
    const EdgeSpec& e = edges_[id];
    targets_[cursor[e.a]] = e.b;
    edge_ids_[cursor[e.a]++] = id;
    targets_[cursor[e.b]] = e.a;
    edge_ids_[cursor[e.b]++] = id;
  }
}

const EdgeSpec& PathEngine::edge(EdgeId id) const {
  IT_CHECK(id < edges_.size());
  return edges_[id];
}

namespace {

/// Indexed binary min-heap over node ids; order = (dist, node id), so
/// equal-distance pops are deterministic.
struct Heap {
  std::vector<NodeId>& items;
  const std::vector<double>& dist;
  std::vector<std::uint32_t>& pos;

  bool less(NodeId x, NodeId y) const {
    if (dist[x] != dist[y]) return dist[x] < dist[y];
    return x < y;
  }
  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(items[i], items[parent])) break;
      std::swap(items[i], items[parent]);
      pos[items[i]] = static_cast<std::uint32_t>(i);
      pos[items[parent]] = static_cast<std::uint32_t>(parent);
      i = parent;
    }
  }
  void sift_down(std::size_t i) {
    for (;;) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < items.size() && less(items[l], items[best])) best = l;
      if (r < items.size() && less(items[r], items[best])) best = r;
      if (best == i) break;
      std::swap(items[i], items[best]);
      pos[items[i]] = static_cast<std::uint32_t>(i);
      pos[items[best]] = static_cast<std::uint32_t>(best);
      i = best;
    }
  }
  void push(NodeId n) {
    items.push_back(n);
    pos[n] = static_cast<std::uint32_t>(items.size() - 1);
    sift_up(items.size() - 1);
  }
  /// Removes and returns the minimum; the caller marks it settled.
  NodeId pop_min() {
    const NodeId top = items.front();
    items.front() = items.back();
    items.pop_back();
    if (!items.empty()) {
      pos[items.front()] = 0;
      sift_down(0);
    }
    return top;
  }
};

}  // namespace

void PathEngine::search_targets(NodeId from, std::span<const NodeId> targets,
                                const Query& query, Workspace& ws) const {
  IT_CHECK(from < num_nodes_);
  ws.prepare(num_nodes_, edges_.size());
  const std::uint64_t gen = ws.generation_;
  // The stopping rule: count the distinct targets still to settle.  With
  // none, no node carries this generation's stamp and the search runs to
  // exhaustion.  (Testing the count before the stamp looks cheaper for a
  // full row, but gcc 12 then inlines the whole relax step into the edge
  // loop, and rows and point queries measured about 5 % slower.)
  std::size_t unsettled = 0;
  for (NodeId t : targets) {
    IT_CHECK(t < num_nodes_);
    if (ws.target_gen_[t] != gen) {
      ws.target_gen_[t] = gen;
      ++unsettled;
    }
  }
  if (query.masked != nullptr) {
    for (EdgeId id : *query.masked) {
      if (id < edges_.size()) ws.mask_gen_[id] = gen;
    }
  }
  const std::vector<EdgeSpec>* overlay = query.overlay;
  const auto* override_fn = query.weight_override;

  Heap heap{ws.heap_, ws.dist_, ws.heap_pos_};
  ws.node_gen_[from] = gen;
  ws.dist_[from] = 0.0;
  ws.via_edge_[from] = kNoEdge;
  ws.via_node_[from] = kNoNode;
  heap.push(from);

  const auto relax = [&](NodeId u, NodeId v, EdgeId eid, double w) {
    if (!(w < kInf)) return;
    const double nd = ws.dist_[u] + w;
    if (ws.node_gen_[v] != gen) {
      ws.node_gen_[v] = gen;
      ws.dist_[v] = nd;
      ws.via_edge_[v] = eid;
      ws.via_node_[v] = u;
      heap.push(v);
      return;
    }
    if (ws.heap_pos_[v] == Workspace::kSettledPos) return;
    if (nd < ws.dist_[v]) {
      ws.dist_[v] = nd;
      ws.via_edge_[v] = eid;
      ws.via_node_[v] = u;
      heap.sift_up(ws.heap_pos_[v]);
    } else if (nd == ws.dist_[v] && eid < ws.via_edge_[v]) {
      // Equal cost: the lowest edge id wins (the determinism contract).
      ws.via_edge_[v] = eid;
      ws.via_node_[v] = u;
    }
  };

  while (!ws.heap_.empty()) {
    const NodeId u = heap.pop_min();
    ws.heap_pos_[u] = Workspace::kSettledPos;
    if (ws.target_gen_[u] == gen && --unsettled == 0) break;
    const std::uint32_t begin = offsets_[u];
    const std::uint32_t end = offsets_[u + 1];
    for (std::uint32_t i = begin; i < end; ++i) {
      const EdgeId eid = edge_ids_[i];
      if (ws.mask_gen_[eid] == gen) continue;
      const double w = override_fn != nullptr ? (*override_fn)(eid) : edges_[eid].weight;
      relax(u, targets_[i], eid, w);
    }
    if (overlay != nullptr) {
      for (std::size_t i = 0; i < overlay->size(); ++i) {
        const EdgeSpec& e = (*overlay)[i];
        const EdgeId eid = static_cast<EdgeId>(edges_.size() + i);
        if (e.a == u) {
          relax(u, e.b, eid, e.weight);
        } else if (e.b == u) {
          relax(u, e.a, eid, e.weight);
        }
      }
    }
  }
}

void PathEngine::reconstruct_into(NodeId from, NodeId to, const Workspace& ws,
                                  Path& out) const {
  out.edges.clear();
  out.nodes.clear();
  out.cost = kInf;
  out.reachable = false;
  if (ws.node_gen_[to] != ws.generation_) return;  // never reached
  out.reachable = true;
  out.cost = ws.dist_[to];
  NodeId cur = to;
  out.nodes.push_back(cur);
  while (cur != from) {
    out.edges.push_back(ws.via_edge_[cur]);
    cur = ws.via_node_[cur];
    out.nodes.push_back(cur);
  }
  std::reverse(out.edges.begin(), out.edges.end());
  std::reverse(out.nodes.begin(), out.nodes.end());
}

Path PathEngine::shortest_path(NodeId from, NodeId to, const Query& query, Workspace& ws) const {
  Path path;
  shortest_path(from, to, query, ws, path);
  return path;
}

void PathEngine::shortest_path(NodeId from, NodeId to, const Query& query, Workspace& ws,
                               Path& out) const {
  search_targets(from, std::span<const NodeId>(&to, 1), query, ws);
  reconstruct_into(from, to, ws, out);
}

void PathEngine::warm_workspace(Workspace& ws) const {
  ws.prepare(num_nodes_, edges_.size());
  // prepare() sizes every generation-stamped array; the heap is the one
  // buffer that otherwise grows lazily as Dijkstra pushes nodes.
  ws.heap_.reserve(num_nodes_);
}

std::vector<double> PathEngine::distances_from(NodeId from, const Query& query,
                                               Workspace& ws) const {
  std::vector<double> out(num_nodes_);
  distances_into(from, query, ws, out.data());
  return out;
}

void PathEngine::distances_into(NodeId from, const Query& query, Workspace& ws,
                                double* out) const {
  search_targets(from, {}, query, ws);
  for (NodeId n = 0; n < num_nodes_; ++n) {
    out[n] = ws.node_gen_[n] == ws.generation_ ? ws.dist_[n] : kInf;
  }
}

void PathEngine::forest_into(NodeId from, const Query& query, Workspace& ws, double* dist,
                             EdgeId* via_edge, NodeId* via_node) const {
  search_targets(from, {}, query, ws);
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (ws.node_gen_[n] == ws.generation_) {
      dist[n] = ws.dist_[n];
      via_edge[n] = ws.via_edge_[n];
      via_node[n] = ws.via_node_[n];
    } else {
      dist[n] = kInf;
      via_edge[n] = kNoEdge;
      via_node[n] = kNoNode;
    }
  }
}

Path RouteForest::path_to(std::size_t source_index, NodeId to) const {
  // Mirrors PathEngine::reconstruct_into: an unreached target yields the
  // default (unreachable) Path; from == to yields the trivial one.
  Path path;
  if (!reachable(source_index, to)) return path;
  const std::size_t base = source_index * stride;
  path.reachable = true;
  path.cost = dist[base + to];
  NodeId cur = to;
  path.nodes.push_back(cur);
  while (via_node[base + cur] != kNoNode) {
    path.edges.push_back(via_edge[base + cur]);
    cur = via_node[base + cur];
    path.nodes.push_back(cur);
  }
  std::reverse(path.edges.begin(), path.edges.end());
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

Path PathEngine::shortest_path(NodeId from, NodeId to, const Query& query) const {
  const auto lease = pool_.acquire();
  return shortest_path(from, to, query, *lease);
}

std::vector<double> PathEngine::distances_from(NodeId from, const Query& query) const {
  const auto lease = pool_.acquire();
  return distances_from(from, query, *lease);
}

DistanceMatrix PathEngine::distance_rows(const std::vector<NodeId>& sources, const Query& query,
                                         sim::Executor* executor) const {
  for (NodeId s : sources) IT_CHECK(s < num_nodes_);
  DistanceMatrix matrix;
  matrix.num_sources = sources.size();
  matrix.stride = num_nodes_;
  matrix.cells.resize(sources.size() * num_nodes_);
  // One Workspace lease per chunk: the pool warms to the number of chunks
  // in flight (= thread count, capped) and every later sweep is
  // allocation-free.
  const auto fill = [&](std::size_t begin, std::size_t end) {
    const auto lease = pool_.acquire();
    for (std::size_t i = begin; i < end; ++i) {
      distances_into(sources[i], query, *lease, matrix.cells.data() + i * num_nodes_);
    }
  };
  if (executor == nullptr || sources.size() < 2) {
    fill(0, sources.size());
  } else {
    executor->for_each_chunk(0, sources.size(), /*chunk=*/0, fill);
  }
  return matrix;
}

RouteForest PathEngine::route_forest(const std::vector<NodeId>& sources,
                                     const Query& query) const {
  for (NodeId s : sources) IT_CHECK(s < num_nodes_);
  RouteForest forest;
  forest.sources = sources;
  forest.stride = num_nodes_;
  forest.dist.resize(sources.size() * num_nodes_);
  forest.via_edge.resize(sources.size() * num_nodes_);
  forest.via_node.resize(sources.size() * num_nodes_);
  const auto lease = pool_.acquire();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::size_t base = i * num_nodes_;
    forest_into(sources[i], query, *lease, forest.dist.data() + base,
                forest.via_edge.data() + base, forest.via_node.data() + base);
  }
  return forest;
}

}  // namespace intertubes::route
