// Fiber-cut resilience analysis.
//
// §4 notes that metrics like "the number of fiber cuts needed to partition
// the US long-haul infrastructure" carry security implications, and §8
// lists resilience analysis as future work.  This module provides the
// machinery: bridge (single-point-of-failure) conduits, random vs
// targeted failure curves — where "targeted" fails the most-shared
// conduits first, the scenario infrastructure sharing makes worse — and
// the minimum conduit cut between two cities (unit-capacity max-flow).
// The curves are drivers over sim::CampaignEngine::evaluate_cuts.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fiber_map.hpp"
#include "transport/undersea.hpp"
#include "util/rng.hpp"

namespace intertubes::risk {

/// Conduits whose single failure disconnects some pair of currently
/// connected map nodes (bridges of the conduit multigraph; a conduit
/// parallel to another between the same cities is never a bridge).
std::vector<core::ConduitId> bridge_conduits(const core::FiberMap& map);

enum class FailureStrategy : std::uint8_t {
  Random,           ///< conduits fail uniformly at random (backhoes)
  MostSharedFirst,  ///< adversary cuts the most heavily shared conduits
};

struct FailurePoint {
  std::size_t failed = 0;
  /// Fraction of node pairs still connected, averaged over trials.
  double connected_pair_fraction = 0.0;
  /// Mean number of connected components.
  double components = 0.0;
};

/// Failure curve: connectivity as cuts accumulate, one point per failure
/// count in [0, max_failures].  Random strategy averages `trials` runs;
/// the targeted strategy is deterministic (trials ignored).
std::vector<FailurePoint> failure_curve(const core::FiberMap& map, FailureStrategy strategy,
                                        std::size_t max_failures, std::size_t trials,
                                        std::uint64_t seed);

/// Minimum number of conduits whose removal disconnects cities s and t
/// (Menger: max number of conduit-disjoint paths), via unit-capacity
/// Edmonds–Karp max-flow on the conduit graph.
std::size_t min_conduit_cut(const core::FiberMap& map, transport::CityId s, transport::CityId t);

/// Footnote 8: the same min cut when coastal undersea festoons count as
/// alternate routes (cables are cuttable too — each contributes one unit
/// of capacity — but no terrestrial backhoe reaches them, so the cut
/// value can only grow).
std::size_t min_conduit_cut_with_undersea(const core::FiberMap& map,
                                          const std::vector<transport::UnderseaCable>& cables,
                                          transport::CityId s, transport::CityId t);

struct ServiceImpactPoint {
  std::size_t failed = 0;
  /// Mean number of ISP links that traverse >= 1 failed conduit — the
  /// services a repair crew finds in the severed tube.  This, not global
  /// reachability, is the paper's shared-risk harm model: metros have
  /// parallel paths, so connectivity survives cuts whose service impact
  /// is enormous.
  double links_hit = 0.0;
  /// Mean number of distinct ISPs with >= 1 hit link.
  double isps_hit = 0.0;
};

/// Service-impact curve under accumulating cuts.  Targeting the most
/// shared conduits maximizes early impact (the §4 risk thesis).
std::vector<ServiceImpactPoint> service_impact_curve(const core::FiberMap& map,
                                                     FailureStrategy strategy,
                                                     std::size_t max_failures, std::size_t trials,
                                                     std::uint64_t seed);

}  // namespace intertubes::risk
