// The robustness-suggestion framework of §5.1.
//
// For a heavily shared conduit and an ISP that rides it, find the
// alternative path between the conduit's endpoints over the existing
// conduit infrastructure (equation 1: the path minimizing shared risk),
// and measure
//   * path inflation (PI): extra hops of the optimized path, and
//   * shared-risk reduction (SRR): tenancy of the original conduit minus
//     the worst tenancy along the optimized path.
// The conduits on the optimized path that the ISP does not already use
// imply peering/acquisition opportunities — aggregated, they give the
// paper's Table 5 "best peer" suggestions.
//
// All path queries run on a shared route::PathEngine (the conduit graph
// compiled once; weight = tenant count + 1e-4·length so equally-risky
// paths prefer shorter fiber).  The optimized path around a conduit does
// not depend on which ISP asks, so each batch entry point runs one masked
// point query per target it reads, once, and answers every ISP from that
// local result.  A planner keeps no state beyond the compiled engine; the
// free functions below are single-shot wrappers that build a private
// planner.
#pragma once

#include <vector>

#include "core/fiber_map.hpp"
#include "risk/risk_matrix.hpp"
#include "route/path_engine.hpp"

namespace intertubes::optimize {

struct RerouteSuggestion {
  core::ConduitId target = core::kNoConduit;
  isp::IspId isp = isp::kNoIsp;
  std::vector<core::ConduitId> optimized_path;  ///< empty if no alternative
  int path_inflation = 0;        ///< hops(optimized) − 1
  int shared_risk_reduction = 0; ///< tenants(target) − max tenants(optimized)
};

/// Aggregates of PI / SRR per ISP over a set of target conduits (Fig 10).
struct IspRobustnessSummary {
  isp::IspId isp = isp::kNoIsp;
  std::size_t targets_using = 0;  ///< how many targets this ISP rides
  double pi_min = 0.0, pi_max = 0.0, pi_avg = 0.0;
  double srr_min = 0.0, srr_max = 0.0, srr_avg = 0.0;
};

/// Table 5: for each ISP, the top-`count` other ISPs whose conduits its
/// optimized paths lean on (candidate peers/suppliers).
struct PeeringSuggestion {
  isp::IspId isp = isp::kNoIsp;
  std::vector<isp::IspId> suggested;  ///< descending by usefulness
};

/// §5.1's network-wide check: "we also considered... all 542 conduits...
/// many of the existing paths used by ISPs were already the best paths,
/// and the potential gains were minimal compared to the gains obtained
/// when just considering the 12 conduits."  Evaluates the attainable SRR
/// for every conduit (via its first tenant) and contrasts the top targets
/// with the rest.
struct NetworkWideGain {
  std::size_t conduits_evaluated = 0;
  /// Conduits whose existing placement is genuinely optimal: an alternate
  /// path exists but lowers nothing (SRR ≤ 0).
  std::size_t already_optimal = 0;
  /// Conduits with no alternate path at all (bridges).  These used to be
  /// folded into already_optimal, conflating "cannot reroute" with
  /// "optimal"; they still contribute an SRR of 0 to the averages below.
  std::size_t unreachable = 0;
  double avg_srr_top = 0.0;   ///< mean positive SRR over the top targets
  double avg_srr_rest = 0.0;  ///< mean positive SRR over everything else
};

/// The compiled conduit graph for a batch of robustness analyses.
/// Immutable after construction, so one planner may serve any number of
/// threads.
class RobustnessPlanner {
 public:
  RobustnessPlanner(const core::FiberMap& map, const risk::RiskMatrix& matrix);

  /// Equation 1 for one (conduit, ISP): minimize the summed shared-risk
  /// of the path between the conduit's endpoints, excluding the target
  /// conduit itself.  The path is ISP-independent: one masked point query.
  RerouteSuggestion suggest_reroute(core::ConduitId target, isp::IspId isp) const;

  std::vector<IspRobustnessSummary> summarize_robustness(
      const std::vector<core::ConduitId>& targets) const;

  std::vector<PeeringSuggestion> suggest_peering(const std::vector<core::ConduitId>& targets,
                                                 std::size_t count = 3) const;

  NetworkWideGain network_wide_gain(std::size_t top_count = 12) const;

  const route::PathEngine& engine() const noexcept { return engine_; }

 private:
  /// The suggestion around `target` (isp left unset) from one masked
  /// search on `ws`.
  RerouteSuggestion reroute(core::ConduitId target, route::PathEngine::Workspace& ws) const;
  /// reroute() for every entry of `targets`, on one leased workspace.
  std::vector<RerouteSuggestion> reroutes(const std::vector<core::ConduitId>& targets) const;

  const core::FiberMap& map_;
  const risk::RiskMatrix& matrix_;
  route::PathEngine engine_;
};

/// Single-shot wrappers (each builds a private RobustnessPlanner; batch
/// callers should construct one planner and reuse it).
RerouteSuggestion suggest_reroute(const core::FiberMap& map, const risk::RiskMatrix& matrix,
                                  core::ConduitId target, isp::IspId isp);

std::vector<IspRobustnessSummary> summarize_robustness(
    const core::FiberMap& map, const risk::RiskMatrix& matrix,
    const std::vector<core::ConduitId>& targets);

std::vector<PeeringSuggestion> suggest_peering(const core::FiberMap& map,
                                               const risk::RiskMatrix& matrix,
                                               const std::vector<core::ConduitId>& targets,
                                               std::size_t count = 3);

NetworkWideGain network_wide_gain(const core::FiberMap& map, const risk::RiskMatrix& matrix,
                                  std::size_t top_count = 12);

}  // namespace intertubes::optimize
