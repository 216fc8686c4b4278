// Geographically correlated failures.
//
// The paper's §7 grounds its motivation in the literature on regional
// disasters (tornados, hurricanes, earthquakes, the 2003 blackout) and in
// the authors' own RiskRoute framework: what fails in practice is not a
// random conduit but *every conduit in a disaster region*.  This module
// models a hazard as a disc on the map, finds the conduits it severs, and
// quantifies the service and connectivity impact — including the
// worst-case disaster placement, which is what infrastructure sharing
// concentrates.  The disc geometry (sim::HazardRegion, conduits_in_region,
// draw_hazard_region) lives in sim/campaign.hpp, and every impact here is
// step 1 of sim::CampaignEngine::evaluate_cuts on one disc.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fiber_map.hpp"
#include "sim/campaign.hpp"
#include "transport/row.hpp"

namespace intertubes::risk {

struct HazardImpact {
  std::size_t conduits_cut = 0;
  std::size_t links_hit = 0;       ///< ISP links traversing >= 1 cut conduit
  std::size_t isps_hit = 0;        ///< distinct ISPs with >= 1 hit link
  double connectivity = 1.0;       ///< fraction of node pairs still connected
};

/// Assess one disaster.
HazardImpact assess_hazard(const core::FiberMap& map, const transport::RightOfWayRegistry& row,
                           const sim::HazardRegion& region);

/// Monte-Carlo study: disasters strike at population-weighted random
/// locations (severe weather correlates with where people build).
struct HazardStudy {
  double mean_links_hit = 0.0;
  double p95_links_hit = 0.0;
  double mean_conduits_cut = 0.0;
  double mean_connectivity = 1.0;
  /// Worst observed sample.
  sim::HazardRegion worst_region;
  HazardImpact worst_impact;
};

HazardStudy hazard_study(const core::FiberMap& map, const transport::CityDatabase& cities,
                         const transport::RightOfWayRegistry& row, double radius_km,
                         std::size_t samples, std::uint64_t seed);

/// Deterministic worst-case placement: grid-search disaster centers over
/// the map's extent and return the one maximizing links hit.
sim::HazardRegion worst_case_placement(const core::FiberMap& map,
                                       const transport::CityDatabase& cities,
                                       const transport::RightOfWayRegistry& row,
                                       double radius_km, double grid_step_km = 75.0);

/// Per-ISP hazard exposure: expected fraction of the ISP's links severed
/// by a population-weighted random disaster of the given radius.  The
/// geographic complement to the risk matrix — two ISPs with equal conduit
/// sharing can differ wildly here if one's routes bunch through one valley.
std::vector<double> isp_hazard_exposure(const core::FiberMap& map,
                                        const transport::CityDatabase& cities,
                                        const transport::RightOfWayRegistry& row,
                                        double radius_km, std::size_t samples,
                                        std::uint64_t seed);

}  // namespace intertubes::risk
