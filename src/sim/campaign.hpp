// Monte-Carlo failure-campaign driver, and the one failure-propagation
// core.
//
// §4 frames "how many fiber cuts partition the US long-haul
// infrastructure" as the key security question; §7 grounds the correlated
// (regional-disaster) variant.  A *campaign* composes a stressor — random
// backhoe cuts, a most-shared-first adversary, or geographically
// correlated disaster discs — with many independent trials, evaluates the
// per-step outcomes of each trial (connectivity, component count, per-ISP
// link damage, risk-weighted conduit loss), and aggregates them into
// percentile curves on a sim::Executor.  Trial t draws from RNG substream
// (seed, t), so a campaign's report is bit-identical for any thread count.
//
// CampaignEngine::evaluate_cuts is where any cut sequence becomes damage:
// the risk/ cut curves and hazard analyses are drivers over it, and the
// disaster-disc geometry they share lives here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/fiber_map.hpp"
#include "sim/executor.hpp"
#include "sim/report.hpp"
#include "transport/cities.hpp"
#include "transport/row.hpp"
#include "util/rng.hpp"

namespace intertubes::sim {

/// A regional disaster: a disc on the map that severs every conduit whose
/// route passes through it.
struct HazardRegion {
  geo::GeoPoint center;
  double radius_km = 100.0;
};

/// Conduits whose route passes within the region (geometry from the ROW
/// registry's corridor paths).
std::vector<core::ConduitId> conduits_in_region(const core::FiberMap& map,
                                                const transport::RightOfWayRegistry& row,
                                                const HazardRegion& region);

/// A disaster centred near (not exactly on) a population centre: an anchor
/// city drawn by `weights` (indexed by CityId), then a distance
/// |N(0, radius_km)| km, then a uniform bearing — three draws into named
/// locals, in that order, so the stream does not depend on the compiler's
/// argument-evaluation order.
HazardRegion draw_hazard_region(const transport::CityDatabase& cities,
                                const std::vector<double>& weights, double radius_km, Rng& rng);

enum class StressorKind : std::uint8_t {
  RandomCuts,         ///< one uniformly random conduit fails per step (backhoes)
  TargetedCuts,       ///< adversary cuts the most heavily shared conduit per step
  CorrelatedHazards,  ///< one population-weighted disaster disc strikes per step
};

struct Stressor {
  StressorKind kind = StressorKind::RandomCuts;
  /// Failure events per trial; the curve has steps+1 points (baseline
  /// included).  Cut stressors are clamped to the conduit count.
  std::size_t steps = 20;
  /// Disaster disc radius (CorrelatedHazards only).
  double hazard_radius_km = 100.0;

  static Stressor random_cuts(std::size_t steps) { return {StressorKind::RandomCuts, steps, 0.0}; }
  static Stressor targeted_cuts(std::size_t steps) {
    return {StressorKind::TargetedCuts, steps, 0.0};
  }
  static Stressor correlated_hazards(std::size_t steps, double radius_km) {
    return {StressorKind::CorrelatedHazards, steps, radius_km};
  }
};

/// Human-readable stressor description ("random cuts", "correlated
/// hazards (r=120 km)", ...) used in report headers.
std::string stressor_name(const Stressor& stressor);

struct CampaignConfig {
  Stressor stressor;
  std::size_t trials = 64;
  std::uint64_t seed = 0x1257;
};

/// Immutable per-map context shared by every trial thread: each conduit's
/// endpoints as dense node indexes (FiberMap's lazily grown adjacency is
/// never touched from trial threads), a conduit→links CSR table and a
/// link→ISP table, the targeted failure order, per-conduit risk weights,
/// and city population weights.
class CampaignEngine {
 public:
  /// `cities`/`row` are required only for the CorrelatedHazards stressor.
  /// `probes_per_conduit` (when non-empty, sized like map.conduits())
  /// upgrades the risk weight from raw tenancy to the §4.3 combined
  /// metric tenants × log2(1 + probes).
  explicit CampaignEngine(const core::FiberMap& map,
                          const transport::CityDatabase* cities = nullptr,
                          const transport::RightOfWayRegistry* row = nullptr,
                          std::vector<std::uint64_t> probes_per_conduit = {});

  const core::FiberMap& map() const noexcept { return map_; }

  /// One trial, a pure function of (stressor, seed, trial):
  /// evaluate_cuts(draw_cuts(stressor, seed, trial)).
  TrialResult run_trial(const Stressor& stressor, std::uint64_t seed, std::size_t trial) const;

  /// The curve of one trial from its per-step cut draws (entry s strikes at
  /// step s+1; ids may repeat within and across steps, and a step may be
  /// empty).  Link and ISP damage and weight_lost come from a forward pass
  /// in kill order; connectivity from one reverse union-find pass over the
  /// steps (util/connectivity.hpp).
  TrialResult evaluate_cuts(const std::vector<std::vector<core::ConduitId>>& cut_sets) const;

  /// The per-step cut draws of one trial: entry s holds the conduits the
  /// stressor strikes at step s+1 (one id for cut stressors — empty past
  /// the end of the failure order — or a whole disaster disc for
  /// CorrelatedHazards; ids may repeat across steps).  Consumes exactly
  /// the RNG stream run_trial does, so replaying these draws elsewhere
  /// (the cascade engine) stays bit-compatible with the campaign.
  std::vector<std::vector<core::ConduitId>> draw_cuts(const Stressor& stressor, std::uint64_t seed,
                                                      std::size_t trial) const;

  /// Run the full campaign on `executor` and aggregate in trial order.
  CampaignReport run(const CampaignConfig& config, Executor& executor) const;

  /// Convenience: run on the process-wide default executor.
  CampaignReport run(const CampaignConfig& config) const;

  /// Nodes of the conduit graph (map().nodes()), and each conduit's
  /// endpoints as indexes into them — the edge list the connectivity
  /// kernel unites, shared with the cascade engine.
  std::size_t num_nodes() const noexcept { return num_nodes_; }
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& conduit_ends() const noexcept {
    return conduit_ends_;
  }

 private:
  const core::FiberMap& map_;
  const transport::CityDatabase* cities_ = nullptr;
  const transport::RightOfWayRegistry* row_ = nullptr;

  std::size_t num_nodes_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> conduit_ends_;  // [conduit]
  // Links using conduit c, in link order: link_ids_[link_offsets_[c],
  // link_offsets_[c + 1]).
  std::vector<std::uint32_t> link_offsets_;
  std::vector<core::LinkId> link_ids_;
  std::vector<isp::IspId> link_isp_;             // [link] → ISP
  std::vector<core::ConduitId> targeted_order_;  // most shared first
  std::vector<double> conduit_weight_;           // [conduit] risk weight
  double total_weight_ = 0.0;
  std::vector<double> city_weights_;  // [city] population (hazard anchors)
};

}  // namespace intertubes::sim
