// Fiber-cut resilience analysis.
//
// §4 notes that metrics like "the number of fiber cuts needed to partition
// the US long-haul infrastructure" carry security implications, and §8
// lists resilience analysis as future work.  This module provides the
// structural machinery: bridge (single-point-of-failure) conduits and the
// minimum conduit cut between two cities (unit-capacity max-flow).  The
// failure curves under accumulating cuts — random backhoes vs an
// adversary that fails the most-shared conduits first — are
// sim::CampaignEngine campaigns, one per stressor (sim/campaign.hpp).
#pragma once

#include <vector>

#include "core/fiber_map.hpp"
#include "transport/undersea.hpp"

namespace intertubes::risk {

/// Conduits whose single failure disconnects some pair of currently
/// connected map nodes (bridges of the conduit multigraph; a conduit
/// parallel to another between the same cities is never a bridge).
std::vector<core::ConduitId> bridge_conduits(const core::FiberMap& map);

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

}  // namespace intertubes::risk
