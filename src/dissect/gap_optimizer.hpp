// Gap-closing optimizer: propose minimum-cost conduit additions that pull
// the worst city pairs within a target factor of their c-latency.
//
// The dissection study (dissector.hpp) measures how far each pair sits
// above target_factor x c-latency; this pass closes those gaps greedily,
// one new conduit per step, choosing among the *unlit* right-of-way
// corridors (corridors that hold no conduit yet — the trenchable but
// untrenched inventory).
//
// Candidate evaluation is exact, not a surrogate, and needs zero extra
// Dijkstras: with the batched all-pairs rows in hand, a single new edge
// (u, v, L) changes pair (a, b)'s distance to
//
//     d'(a,b) = min(d(a,b), d(a,u) + L + d(v,b), d(a,v) + L + d(u,b))
//
// and every term is a cell of the DistanceMatrix.  Each greedy step
// scores all candidates (fanned out on the executor), commits the best,
// rebuilds the engine with the new edge, and re-sweeps — so chains of
// corridors emerge across steps even though each step adds one edge.
#pragma once

#include <cstddef>
#include <vector>

#include "core/fiber_map.hpp"
#include "transport/cities.hpp"
#include "transport/row.hpp"

namespace intertubes::sim {
class Executor;
}

namespace intertubes::dissect {

struct GapClosingParams {
  /// Pairs with fiber delay above target_factor x c-latency are gaps.
  double target_factor = 2.0;
  /// Build-cost pressure: a candidate's score is its excess reduction
  /// (ms) minus cost_weight x the candidate's own propagation delay (a
  /// km-proportional cost proxy).  Higher values prefer short trenches.
  double cost_weight = 0.35;
  /// Maximum number of conduits to propose.
  std::size_t max_k = 5;
  /// Finite excess charged to a fiber-unreachable pair, so connecting
  /// disconnected components scores as closing a (large) gap.  Roughly a
  /// continental crossing of fiber.
  double unreachable_excess_ms = 25.0;
};

/// One committed greedy step, with the *post-commit* exact state.
struct GapStep {
  transport::CorridorId corridor = transport::kNoCorridor;
  double km_added = 0.0;       ///< corridor length trenched
  double excess_ms = 0.0;      ///< total excess after this step
  std::size_t gap_pairs = 0;   ///< pairs still above target after this step
};

struct GapClosingResult {
  double excess_ms_before = 0.0;
  std::size_t gap_pairs_before = 0;
  std::vector<GapStep> steps;  ///< empty when no beneficial addition exists
  double excess_ms_after = 0.0;
  std::size_t gap_pairs_after = 0;
};

/// Greedy gap-closing over the unlit-corridor inventory.  Deterministic:
/// candidate scores are reduced in candidate order and ties break to the
/// lowest corridor id, so the result is identical for any executor size
/// (including executor == nullptr, the serial baseline).
GapClosingResult close_gaps(const core::FiberMap& map, const transport::CityDatabase& cities,
                            const transport::RightOfWayRegistry& row,
                            const GapClosingParams& params = {},
                            sim::Executor* executor = nullptr);

}  // namespace intertubes::dissect
