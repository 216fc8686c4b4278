// Latency dissection: the paper's §5.3 delay study (Figure 12) extended
// into a production all-pairs workload, following *Dissecting Latency in
// the Internet's Fiber Infrastructure*.
//
// For every unordered pair of mapped cities, the one-way propagation
// delay of the best existing fiber path is decomposed into four stacked
// components, each the gap between two successively weaker idealizations:
//
//   c-latency        great-circle distance at the vacuum speed of light —
//                    the hard physical floor;
//   + refraction     the same straight line through fiber glass (group
//                    index ~1.468) — unavoidable as long as light rides
//                    fiber;
//   + ROW inflation  the best right-of-way route through fiber — the cost
//                    of following roads/rails/pipelines instead of the
//                    chord; the floor any *build-out* can reach;
//   + fiber detour   the best *existing* conduit path — what today's lit
//                    fiber adds on top of the best trenchable route.
//
// The detour component is the **achievable improvement**: delay that new
// conduits along existing rights-of-way could recover without new
// physics or new corridors.  The audit ranks pairs by it; the gap-closing
// optimizer (gap_optimizer.hpp) proposes the conduits.
//
// The sweep runs one pass per source city, optionally fanned out on a
// sim::Executor: one Dijkstra row over the conduit graph and one over the
// ROW corridor graph (route::PathEngine::distances_into), then that
// source's pairs decomposed and counted straight from the two rows —
// n passes instead of one point-to-point Dijkstra per pair, and no
// all-pairs distance matrix.  Rows are pure functions of (graph, source),
// so the study is bit-identical for any thread count.
#pragma once

#include <memory>
#include <vector>

#include "core/fiber_map.hpp"
#include "route/path_engine.hpp"
#include "transport/cities.hpp"
#include "transport/row.hpp"

namespace intertubes::sim {
class Executor;
}

namespace intertubes::dissect {

/// One city pair's decomposition.  Delays are one-way propagation in ms;
/// row_ms / fiber_ms are +inf when the respective graph offers no path
/// (never aliased to a finite fallback — see the Figure 12 contamination
/// fix in optimize/latency).  The component fields are meaningful only
/// when both graphs reach the pair.
struct PairDissection {
  transport::CityId a = transport::kNoCity;
  transport::CityId b = transport::kNoCity;
  double clat_ms = 0.0;   ///< great-circle at c in vacuum — the floor
  double los_ms = 0.0;    ///< great-circle through fiber glass
  double row_ms = 0.0;    ///< best right-of-way route (+inf if unreachable)
  double fiber_ms = 0.0;  ///< best existing conduit path (+inf if unreachable)
  // Decomposition of fiber_ms (stacked gaps; sums back to fiber_ms):
  double refraction_ms = 0.0;      ///< los - clat: glass group index
  double row_inflation_ms = 0.0;   ///< row - los: following rights of way
  double detour_ms = 0.0;          ///< fiber - row: lit fiber off the best ROW
  double stretch = 0.0;            ///< fiber_ms / clat_ms (+inf if unreachable)
  double achievable_ms = 0.0;      ///< max(0, fiber - row): recoverable by trenching
  bool fiber_reachable = false;
  bool row_reachable = false;
};

/// The full all-pairs study plus its headline aggregates.
struct DissectionStudy {
  std::vector<transport::CityId> nodes;  ///< swept city set, ascending
  /// All unordered pairs of `nodes` in (i, j>i) row-major order.
  std::vector<PairDissection> pairs;
  std::size_t fiber_unreachable = 0;
  std::size_t row_unreachable = 0;
  double target_factor = 0.0;   ///< the stretch bar within_target was judged at
  std::size_t within_target = 0;  ///< fiber-reachable pairs with stretch <= target
  // Aggregates over fiber-reachable pairs:
  double median_stretch = 0.0;
  double p95_stretch = 0.0;
  /// Sum of achievable_ms over pairs where both graphs reach — the total
  /// delay on the table for a build-out along existing rights-of-way.
  double total_achievable_ms = 0.0;
};

struct DissectOptions {
  /// Pairs with fiber_ms <= target_factor * clat_ms count as "within
  /// target" (the serving-quality bar the gap optimizer also closes to).
  double target_factor = 2.0;
};

/// Decomposes all-pairs latency over one immutable world.  Construction
/// compiles (or borrows) the length-weighted conduit engine; dissect()
/// runs the batched sweep.  Thread-safe: all queries are const and the
/// engines never mutate.
class LatencyDissector {
 public:
  /// Compile a fresh length-weighted conduit engine from `map`.  The
  /// city database and ROW registry are borrowed and must outlive the
  /// dissector.
  LatencyDissector(const core::FiberMap& map, const transport::CityDatabase& cities,
                   const transport::RightOfWayRegistry& row);

  /// Share an already compiled conduit engine (serve::Snapshot's) instead
  /// of building a duplicate.  `nodes` is the city set to sweep (the
  /// map's nodes); it must be sorted ascending.
  LatencyDissector(std::shared_ptr<const route::PathEngine> fiber_engine,
                   std::vector<transport::CityId> nodes,
                   const transport::CityDatabase& cities,
                   const transport::RightOfWayRegistry& row);

  const std::vector<transport::CityId>& nodes() const noexcept { return nodes_; }

  /// The batched all-pairs sweep: one pass per source (parallel over
  /// sources when `executor` is non-null) computes its distance rows over
  /// the conduit and ROW engines and decomposes and counts its pairs.
  /// Only the total_achievable_ms fold and the two percentile picks run
  /// after the pass, on the calling thread.  Bit-identical for any thread
  /// count; with a null executor nothing runs off the calling thread.
  DissectionStudy dissect(sim::Executor* executor = nullptr,
                          const DissectOptions& options = {}) const;

  /// One pair: one target search per engine, stopped once `b` settles —
  /// bit-identical to the corresponding sweep entry (both are pure
  /// functions of the same graphs).
  PairDissection dissect_pair(transport::CityId a, transport::CityId b) const;

 private:
  PairDissection decompose(transport::CityId a, transport::CityId b, double fiber_km,
                           double row_km) const;

  std::shared_ptr<const route::PathEngine> fiber_;
  std::vector<transport::CityId> nodes_;
  const transport::CityDatabase& cities_;
  const transport::RightOfWayRegistry& row_;
};

}  // namespace intertubes::dissect
