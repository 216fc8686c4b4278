// The shared routing core: one compiled graph, many cheap what-if queries.
//
// Every mitigation analysis in the repo (robustness suggestions, k-new-
// conduit expansion, ROW shortest paths, serve city-pair paths) reduces to
// a min-weight path over a mostly static graph with small per-query
// perturbations — an excluded conduit, a tentative new edge, a custom
// weight.  PathEngine compiles the graph once into CSR adjacency (flat
// uint32 arrays, cache-friendly, no per-node hashing) and answers Dijkstra
// queries against generation-stamped scratch arrays: resetting a Workspace
// between queries is O(1) (bump a counter), and after the first query on a
// Workspace no allocation happens at all.
//
// Query-time perturbations never copy the graph:
//   * edge masks — a sorted list of excluded edge ids, stamped into the
//     workspace in O(|mask|);
//   * overlay edges — extra EdgeSpecs scanned alongside the CSR rows,
//     with ids starting at num_edges() (how the expansion optimizer
//     evaluates a tentative conduit without cloning anything);
//   * weight overrides — a per-edge cost functor (+inf forbids), the
//     escape hatch for the ROW registry's custom WeightFn callers.
//
// Many-to-many workloads run one full Dijkstra per source instead of
// n(n-1)/2 point-to-point queries.  distances_into() writes one row into
// caller storage (the dissect/ all-pairs sweep consumes each row as it
// is made); distance_rows() batches rows into a flat row-major
// DistanceMatrix, optionally parallelized over sources on a
// sim::Executor (the dissect/ gap-closer reads whole rows).  A source
// that needs only a few targets (the cascade rounds, the robustness and
// expansion planners, the traceroute overlay) runs search_targets(): one
// Dijkstra that stops once every target has settled, read back straight
// from the Workspace.
// shortest_path() is its one-target case.
//
// Determinism contract: results are a pure function of (graph, query).
// Ties are broken canonically — the heap pops equal-distance nodes in
// node-id order, and among equal-cost predecessors the lowest edge id
// wins — so parallel fan-outs that issue one query per work item are
// bit-identical to their serial runs for any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "util/alloc.hpp"

namespace intertubes::sim {
class Executor;
}

namespace intertubes::route {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xffffffffu;
inline constexpr EdgeId kNoEdge = 0xffffffffu;

/// An undirected edge with its precompiled base weight.
struct EdgeSpec {
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  double weight = 0.0;
};

/// A shortest path.  `edges` may contain overlay ids (>= num_edges());
/// `nodes` has edges.size()+1 entries when reachable (just {from} when
/// from == to).  An unreachable query leaves cost at +inf.
struct Path {
  std::vector<EdgeId> edges;
  std::vector<NodeId> nodes;
  double cost = std::numeric_limits<double>::infinity();
  bool reachable = false;
};

/// Dense distance rows for many sources against one shared query — the
/// result of a batched many-to-many sweep.  Row i holds the full
/// distance vector of sources[i] (kNoNode-free dense layout, +inf for
/// unreachable nodes), laid out row-major at a fixed stride so consumers
/// stream over flat doubles instead of per-source vectors.
struct DistanceMatrix {
  std::vector<double> cells;    ///< row-major, num_sources x stride
  std::size_t num_sources = 0;
  std::size_t stride = 0;       ///< = engine.num_nodes()

  const double* row(std::size_t source_index) const noexcept {
    return cells.data() + source_index * stride;
  }
  double at(std::size_t source_index, NodeId node) const noexcept {
    return cells[source_index * stride + node];
  }
};

/// Dense shortest-path forests for many sources against one shared query —
/// the parent-carrying sibling of DistanceMatrix.  Row i holds the full
/// Dijkstra tree of sources[i]: distance, incoming edge, and predecessor
/// per node, so consumers can materialize any tree path (or just walk its
/// edge ids) without re-running a point-to-point query.  Every extracted
/// path is bit-identical to shortest_path(sources[i], to, query) and to
/// search_targets: the canonical tie-breaks freeze a settled node's
/// parent, so the full run and an early-exit run agree on every node
/// settled before the exit.
struct RouteForest {
  std::vector<double> dist;      ///< row-major num_sources x stride, +inf unreached
  std::vector<EdgeId> via_edge;  ///< incoming edge; kNoEdge at the source / unreached
  std::vector<NodeId> via_node;  ///< predecessor; kNoNode at the source / unreached
  std::vector<NodeId> sources;
  std::size_t stride = 0;        ///< = engine.num_nodes()

  double dist_at(std::size_t source_index, NodeId node) const noexcept {
    return dist[source_index * stride + node];
  }
  bool reachable(std::size_t source_index, NodeId node) const noexcept {
    return via_node[source_index * stride + node] != kNoNode ||
           sources[source_index] == node;
  }

  /// The tree path sources[source_index] → to, bit-identical to the
  /// point-to-point query under the forest's own Query.
  Path path_to(std::size_t source_index, NodeId to) const;

  /// Visit the edge ids on the tree path to → source (leaf-to-root order,
  /// no allocation).  No-op when `to` is unreached or the source itself.
  template <typename Fn>
  void for_each_path_edge(std::size_t source_index, NodeId to, const Fn& fn) const {
    const std::size_t base = source_index * stride;
    NodeId cur = to;
    while (via_node[base + cur] != kNoNode) {
      fn(via_edge[base + cur]);
      cur = via_node[base + cur];
    }
  }
};

/// Per-query perturbations.  All pointers are borrowed for the duration of
/// the call and may be null.
struct Query {
  /// Excluded edge ids, sorted ascending (base edges only).
  const std::vector<EdgeId>* masked = nullptr;
  /// Extra edges; overlay edge i gets id num_edges() + i.
  const std::vector<EdgeSpec>* overlay = nullptr;
  /// Replaces the base weight of every base edge; return +inf to forbid.
  /// Overlay edges keep their own weight.
  const std::function<double(EdgeId)>* weight_override = nullptr;
};

class PathEngine {
 public:
  /// Reusable Dijkstra scratch: distance/parent/heap arrays with a
  /// generation stamp per node, so reset between queries is O(1).  One
  /// Workspace per thread; the engine never writes through `this`.
  class Workspace {
   public:
    Workspace() = default;

    /// The last search's results.  A settled node's distance and tree
    /// path are final; the readers below are defined only for settled
    /// nodes of the graph this workspace last searched.
    bool settled(NodeId node) const noexcept {
      return node_gen_[node] == generation_ && heap_pos_[node] == kSettledPos;
    }
    double distance(NodeId node) const noexcept { return dist_[node]; }

    /// Visit the edge ids on the tree path node → source (leaf-to-root
    /// order, no allocation).  No-op at the source.
    template <typename Fn>
    void for_each_path_edge(NodeId node, const Fn& fn) const {
      for (NodeId cur = node; via_node_[cur] != kNoNode; cur = via_node_[cur]) {
        fn(via_edge_[cur]);
      }
    }

   private:
    friend class PathEngine;
    static constexpr std::uint32_t kSettledPos = 0xffffffffu;  // heap_pos_ once popped
    void prepare(std::size_t num_nodes, std::size_t num_edges);

    std::vector<double> dist_;
    std::vector<EdgeId> via_edge_;
    std::vector<NodeId> via_node_;
    std::vector<std::uint64_t> node_gen_;   // per node: last query that touched it
    std::vector<std::uint32_t> heap_pos_;   // valid only when node_gen_ is current
    std::vector<std::uint64_t> target_gen_; // per node: last query that targeted it
    std::vector<NodeId> heap_;              // indexed binary min-heap of node ids
    std::vector<std::uint64_t> mask_gen_;   // per base edge: last query that masked it
    std::uint64_t generation_ = 0;
  };

  /// Compile the CSR adjacency.  Edge ids are indices into `edges`.
  PathEngine(NodeId num_nodes, std::vector<EdgeSpec> edges);

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_edges() const noexcept { return edges_.size(); }
  const EdgeSpec& edge(EdgeId id) const;

  /// Dijkstra from `from` under `query` that stops once every node in
  /// `targets` has settled (repeats and `from` itself allowed); an
  /// unreachable target lets it run until the reachable set is exhausted,
  /// and an empty target set settles every reachable node.  Afterwards
  /// ws.settled(t) tells whether target t is reachable, and ws.distance(t)
  /// and ws.for_each_path_edge(t, fn) give its distance and tree path,
  /// bit-identical to shortest_path(from, t, query) and to the route_forest
  /// row of `from`: nodes settle in (distance, node id) order and a settled
  /// node's parent is final, so an early exit settles the same prefix as a
  /// full run.
  void search_targets(NodeId from, std::span<const NodeId> targets, const Query& query,
                      Workspace& ws) const;

  /// Dijkstra from `from` to `to` under `query`, using caller-owned
  /// scratch (the zero-allocation hot path; reuse `ws` across queries).
  Path shortest_path(NodeId from, NodeId to, const Query& query, Workspace& ws) const;

  /// Fully reusable variant: the result lands in `out`, whose vectors are
  /// cleared and refilled in place.  With a warmed `ws` and an `out` that
  /// has served a query before, this performs zero heap allocations — the
  /// serve fast-path primitive (see ZeroAllocGuard in util/alloc.hpp).
  void shortest_path(NodeId from, NodeId to, const Query& query, Workspace& ws,
                     Path& out) const;

  /// Convenience overload borrowing a Workspace from the engine's
  /// internal pool — thread-safe, allocation-free after warm-up.
  Path shortest_path(NodeId from, NodeId to, const Query& query = {}) const;

  /// Single-source distances to every node (+inf when unreachable).
  std::vector<double> distances_from(NodeId from, const Query& query = {}) const;
  std::vector<double> distances_from(NodeId from, const Query& query, Workspace& ws) const;

  /// Fill out[0 .. num_nodes()) with distances from `from` — the
  /// allocation-free row primitive distance_rows() is built on (one
  /// generation-stamped scratch pass, no output vector per source).
  void distances_into(NodeId from, const Query& query, Workspace& ws, double* out) const;

  /// Fill one forest row (distance + incoming edge + predecessor per
  /// node) from `from` — the row primitive route_forest() is built on.
  /// All three output spans cover [0 .. num_nodes()).
  void forest_into(NodeId from, const Query& query, Workspace& ws, double* dist,
                   EdgeId* via_edge, NodeId* via_node) const;

  /// Batched many-to-many sweep: one full Dijkstra per source, written
  /// into a flat row-major matrix.  When `executor` is non-null the
  /// sources fan out over its chunked parallel region with one leased
  /// Workspace per chunk; each row is a pure function of (graph, query,
  /// source), so the matrix is bit-identical for any thread count.  This
  /// is the all-pairs primitive: n sources cost n Dijkstras instead of
  /// the n(n-1)/2 point-to-point queries a per-pair sweep pays.
  DistanceMatrix distance_rows(const std::vector<NodeId>& sources, const Query& query = {},
                               sim::Executor* executor = nullptr) const;

  /// Batched shortest-path forests: one full Dijkstra per source with the
  /// parent arrays kept, for callers that read whole trees.  A caller that
  /// reads a few targets per source runs search_targets instead.
  RouteForest route_forest(const std::vector<NodeId>& sources, const Query& query = {}) const;

  /// Lease a Workspace from the engine's internal capped pool — what the
  /// convenience overloads use.  Allocation-free once the pool has warmed
  /// to the steady-state concurrency level; releases beyond the cap free
  /// their workspace instead of growing the pool forever.
  util::LeasePool<Workspace>::Lease lease_workspace() const { return pool_.acquire(); }

  /// Size every scratch array in `ws` (including the heap) to this
  /// graph's node/edge counts, so the *first* query on it is already
  /// allocation-free.  Without this, the first query on a fresh Workspace
  /// sizes the arrays itself (the documented warm-up allocation).
  void warm_workspace(Workspace& ws) const;

  /// Pool observability for the capped-growth regression tests.
  std::size_t workspace_pool_idle() const { return pool_.idle(); }
  std::size_t workspace_pool_cap() const noexcept { return pool_.cap(); }
  std::size_t workspaces_created() const noexcept { return pool_.created(); }
  std::size_t workspaces_dropped() const noexcept { return pool_.dropped(); }

 private:
  void reconstruct_into(NodeId from, NodeId to, const Workspace& ws, Path& out) const;

  std::size_t num_nodes_ = 0;
  std::vector<EdgeSpec> edges_;
  // CSR: incidences of node u live at [offsets_[u], offsets_[u+1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> targets_;
  std::vector<EdgeId> edge_ids_;

  mutable util::LeasePool<Workspace> pool_;
};

}  // namespace intertubes::route
