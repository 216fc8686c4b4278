// Cross-layer cascade & percolation: physical cuts that propagate to L3,
// with capacity-aware overload rounds.
//
// InterTubes measures the shared risk of the physical conduit map; this
// module measures what a physical failure *does* — to the IP topology
// riding the conduits and to the traffic the surviving conduits must
// absorb.  A cascade trial:
//
//   1. cuts a set of conduits (any sim/campaign stressor: random backhoe
//      cuts, the most-shared-first adversary, disaster discs);
//   2. propagates the cuts up: an L3 edge dies iff any conduit under one
//      of its corridors is dead (peering edges ride no corridor and never
//      die physically);
//   3. runs capacity-aware overload rounds in the style of Motter–Lai:
//      every ISP link is a unit demand routed over the surviving conduit
//      graph, conduits whose demand load exceeds their provisioned
//      capacity — (1 + margin) x baseline load — fail, and the process
//      repeats to a fixed point.  A round re-routes only the demands whose
//      chain or route lost a conduit since the last round, with one
//      route::PathEngine search per distinct source that stops once that
//      source's targets have settled.
//
// Percolation sweeps drive the same structural metrics across a fraction-
// removed grid per adversary model: giant-component size of the physical
// graph, dead L3 edge fraction, and L3 router-pair reachability.
//
// Determinism contract: trial t draws from RNG substream (seed, t) via
// CampaignEngine::draw_cuts; everything after the draw is a pure function
// of the cut set.  Rerouting uses the canonical PathEngine tie-breaks and
// all folds run in trial order, so every curve is bit-identical for any
// executor thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fiber_map.hpp"
#include "route/path_engine.hpp"
#include "sim/campaign.hpp"
#include "sim/report.hpp"
#include "traceroute/l3_topology.hpp"
#include "transport/cities.hpp"
#include "transport/row.hpp"

namespace intertubes::sim {
class Executor;
}

namespace intertubes::cascade {

/// Overload-round knobs.  Capacity of conduit c is
/// max(capacity_floor, (1 + capacity_margin) * baseline_load(c)) where
/// baseline_load sums the demand weights of the ISP links riding c in the
/// intact map (the link count under unit demands) — the usual
/// "provisioned for normal load plus a tolerance" model.
struct CascadeParams {
  double capacity_margin = 0.25;
  double capacity_floor = 1.0;
  /// Overload waves after the initial cut; the fixed point is declared at
  /// the first wave with no overloads, or forcibly here.
  std::size_t max_rounds = 8;

  bool operator==(const CascadeParams&) const = default;
};

/// Structure-only damage of a cut set (no overload dynamics): how the
/// physical graph fragments and what survives at L3.
struct StructuralMetrics {
  /// Largest physical component / node count (1.0 when intact).
  double giant_component = 1.0;
  /// Fraction of L3 edges with a dead conduit underneath (0 without L3).
  double l3_edges_dead = 0.0;
  /// Fraction of router pairs still L3-connected (1.0 without L3).
  double l3_reachability = 1.0;

  bool operator==(const StructuralMetrics&) const = default;
};

/// The state after overload wave `round` (round 0 = right after the
/// initial cuts, before any overload failure).
struct RoundPoint {
  std::size_t round = 0;
  std::size_t conduits_dead = 0;     ///< cumulative, cuts + overloads
  std::size_t overload_failed = 0;   ///< cumulative overload-only failures
  double giant_component = 1.0;
  double l3_edges_dead = 0.0;
  double l3_reachability = 1.0;
  /// Fraction of ISP-link demands still deliverable over surviving
  /// conduits (rerouted demands count as delivered).
  double demand_delivered = 1.0;
  /// Mean km-stretch of delivered demands vs. their intact chains (+inf
  /// when nothing is deliverable).
  double mean_stretch = 1.0;

  bool operator==(const RoundPoint&) const = default;
};

/// One full cascade from a cut set to its fixed point.
struct CascadeOutcome {
  std::vector<RoundPoint> rounds;  ///< rounds[r] = state after wave r
  std::size_t fixed_point_round = 0;
  /// False when max_rounds stopped a still-overloading cascade.
  bool converged = true;
  /// Overload-failed conduits in wave order (ascending id within a wave).
  std::vector<core::ConduitId> overload_failures;
  /// [isp] demands undeliverable at the fixed point.
  std::vector<std::uint32_t> isp_links_lost;

  bool operator==(const CascadeOutcome&) const = default;
};

/// One Monte-Carlo trial: the outcome's round curve padded to
/// max_rounds+1 points (repeating the fixed point) so trials aggregate
/// into fixed-width curves.
struct CascadeTrialResult {
  std::vector<RoundPoint> rounds;
  std::vector<std::uint32_t> isp_links_lost;

  bool operator==(const CascadeTrialResult&) const = default;
};

struct CascadeConfig {
  /// The initial-cut draw: all of the stressor's steps are drawn and cut
  /// at once (a trial is one composite failure event, not a time series).
  sim::Stressor stressor = sim::Stressor::random_cuts(8);
  CascadeParams params;
  std::size_t trials = 64;
  std::uint64_t seed = 0x1257;
};

/// Cross-trial aggregate: mean/p5/p50/p95 per overload round, plus the
/// per-ISP undeliverable-demand table at the fixed point.
struct CascadeReport {
  std::string stressor;
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  std::size_t rounds = 0;  ///< = params.max_rounds; every curve has rounds+1 points
  CascadeParams params;

  sim::MetricCurve conduits_dead;
  sim::MetricCurve overload_failed;
  sim::MetricCurve giant_component;
  sim::MetricCurve l3_edges_dead;
  sim::MetricCurve l3_reachability;
  sim::MetricCurve demand_delivered;
  /// A trial whose demands are all undeliverable contributes no stretch
  /// sample (aggregate_samples drops +inf; samples records the
  /// survivors) instead of poisoning the mean.
  sim::MetricCurve mean_stretch;
  std::vector<sim::IspImpact> isp_impact;

  bool operator==(const CascadeReport&) const = default;
};

struct PercolationConfig {
  sim::StressorKind adversary = sim::StressorKind::RandomCuts;
  double hazard_radius_km = 100.0;  ///< CorrelatedHazards only
  /// Grid points: fraction k/resolution for k = 0..resolution.
  std::size_t resolution = 20;
  /// Hazard trials draw at most this many discs; a trial that exhausts
  /// them saturates below fraction 1.0 (the recorded conduits_dead curve
  /// stays honest about how far it got).
  std::size_t max_hazard_events = 1024;
  std::size_t trials = 32;
  std::uint64_t seed = 0x1257;
};

/// Percolation curves over the fraction-removed grid.  conduits_dead is
/// the *achieved* dead fraction at each grid point (>= the grid fraction
/// only when a disaster disc overshoots; < it only when hazard events ran
/// out).
struct PercolationReport {
  std::string adversary;
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  std::size_t resolution = 0;

  sim::MetricCurve conduits_dead;
  sim::MetricCurve giant_component;
  sim::MetricCurve l3_edges_dead;
  sim::MetricCurve l3_reachability;

  bool operator==(const PercolationReport&) const = default;
};

/// Immutable per-world cascade context shared by every trial thread:
/// the demand set (one unit demand per ISP link, riding its conduit
/// chain), baseline per-conduit loads and the L3 edge → conduit
/// resolution.  All public methods are const and thread-safe.
class CascadeEngine {
 public:
  /// `l3` is optional — without it the L3 metrics stay at their baseline
  /// constants (synthetic-map prop tests).  `cities`/`row` are required
  /// only for the CorrelatedHazards stressor.  `engine` (when non-null)
  /// shares an already compiled length-weighted conduit engine whose edge
  /// ids equal conduit ids (serve::Snapshot's); otherwise one is built.
  /// `demand_weights` (when non-null, indexed by LinkId) makes demands
  /// non-uniform — traffic-weighted via traffic_demand_weights below, or
  /// any positive per-link weighting; null keeps the historical unit
  /// demands, bit-identically (a weight of 1.0 multiplies and sums
  /// exactly).  All borrowed pointers/references must outlive the engine.
  explicit CascadeEngine(const core::FiberMap& map,
                         const traceroute::L3Topology* l3 = nullptr,
                         const transport::CityDatabase* cities = nullptr,
                         const transport::RightOfWayRegistry* row = nullptr,
                         std::shared_ptr<const route::PathEngine> engine = nullptr,
                         const std::vector<double>* demand_weights = nullptr);

  const core::FiberMap& map() const noexcept { return map_; }
  std::size_t num_demands() const noexcept { return demands_.size(); }
  /// [conduit] summed demand weight riding it in the intact map (= the
  /// ISP-link count under unit demands).
  const std::vector<double>& baseline_load() const noexcept { return baseline_load_; }

  /// Structure-only damage of a cut set — the brute-force-checkable
  /// surface the prop oracle compares against an independent BFS.
  StructuralMetrics evaluate_structure(const std::vector<core::ConduitId>& cuts) const;

  /// The full cascade from `cuts` (duplicates tolerated) to its fixed
  /// point.  Pure function of (world, cuts, params).
  CascadeOutcome run_cascade(const std::vector<core::ConduitId>& cuts,
                             const CascadeParams& params) const;

  /// One Monte-Carlo trial: draw the stressor's cuts from substream
  /// (seed, trial), union them, cascade, pad to max_rounds+1 points.
  CascadeTrialResult run_trial(const CascadeConfig& config, std::size_t trial) const;

  /// Run the campaign (parallel over trials when `executor` is non-null)
  /// and aggregate in trial order.  Bit-identical for any thread count.
  CascadeReport run(const CascadeConfig& config, sim::Executor* executor = nullptr) const;

  /// Percolation sweep: per trial, one long removal sequence drawn from
  /// the adversary; structural metrics recorded as the dead fraction
  /// crosses each grid point.  Bit-identical for any thread count.
  PercolationReport percolation(const PercolationConfig& config,
                                sim::Executor* executor = nullptr) const;

 private:
  struct Demand {
    route::NodeId a = 0;
    route::NodeId b = 0;
    isp::IspId isp = isp::kNoIsp;
    core::LinkId link = 0;
    double baseline_km = 0.0;  ///< intact chain length
    double weight = 1.0;       ///< traffic weight (unit by default)
  };

  /// Structure at every step 0..last_step of a monotone failure sequence
  /// (conduit c dead from step first_death[c] on), from one reverse
  /// union-find pass over the physical graph and one over the L3 graph.
  std::vector<StructuralMetrics> structure_by_step(const std::vector<std::uint32_t>& first_death,
                                                   std::size_t last_step) const;

  const core::FiberMap& map_;
  const traceroute::L3Topology* l3_ = nullptr;
  std::shared_ptr<const route::PathEngine> engine_;
  /// The stressor draw, and the conduit-end table the structural sweeps
  /// unite.
  sim::CampaignEngine campaign_;

  std::vector<Demand> demands_;        // one per ISP link
  std::vector<double> baseline_load_;  // [conduit] summed demand weight
  double total_weight_ = 0.0;          // sum of demand weights
  // [l3 edge] → conduit ids under its corridors (unmapped corridors and
  // peering edges resolve to none and keep the edge alive).
  std::vector<std::vector<core::ConduitId>> l3_edge_conduits_;
};

/// §4.3 probe-weighted demand weights, indexed by LinkId: weight of link L
/// = max(1, log2(1 + probes riding L's conduits)) — logarithmic in traffic
/// (route popularity is heavy-tailed, same shaping as the traffic-weighted
/// risk ranking), floored at the unit demand so an unprobed link still
/// counts as one deployment.  `probes_per_conduit` comes from any
/// traceroute overlay (see risk/traffic_weighted.hpp).
std::vector<double> traffic_demand_weights(const core::FiberMap& map,
                                           const std::vector<std::uint64_t>& probes_per_conduit);

}  // namespace intertubes::cascade
