// Campaign outcome records and their ordered aggregation.
//
// A failure campaign produces one TrialResult per Monte-Carlo trial; this
// module folds them — always in trial order, so the report is byte-
// identical for any executor thread count — into mean/p5/p50/p95 curves
// per failure step plus a per-ISP impact table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "isp/profiles.hpp"

namespace intertubes::sim {

class Executor;

/// Metrics of one trial after `conduits_down` cumulative failures.
struct TrialPoint {
  std::size_t conduits_down = 0;
  double connected_pair_fraction = 1.0;  ///< node pairs still connected
  std::size_t components = 0;
  std::size_t links_hit = 0;  ///< ISP links traversing >= 1 dead conduit
  std::size_t isps_hit = 0;   ///< distinct ISPs with >= 1 hit link
  /// Fraction of the map's total conduit risk weight (tenancy ×
  /// log-traffic when probe counts are supplied, raw tenancy otherwise)
  /// sitting in dead conduits.
  double weight_lost = 0.0;

  bool operator==(const TrialPoint&) const = default;
};

/// One trial: a curve over failure steps 0..steps (index 0 = baseline)
/// plus the per-ISP link damage at the final step.
struct TrialResult {
  std::vector<TrialPoint> points;
  std::vector<std::uint32_t> isp_links_lost;  ///< [isp] links hit at final step

  bool operator==(const TrialResult&) const = default;
};

struct CurvePoint {
  double mean = 0.0;
  double p5 = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  /// Finite samples that entered the aggregate (= trial count unless
  /// non-finite sentinels were dropped).
  std::size_t samples = 0;

  bool operator==(const CurvePoint&) const = default;
};

/// One metric aggregated across trials, one CurvePoint per failure step.
struct MetricCurve {
  std::string name;
  std::vector<CurvePoint> points;

  bool operator==(const MetricCurve&) const = default;
};

/// Fold one cross-trial sample vector (values[t] = trial t's outcome at a
/// fixed step) into a CurvePoint.  Non-finite samples (the +inf
/// unreachable-pair sentinels of the dissect/cascade convention) are
/// dropped, so one unreachable trial cannot poison a step's mean and
/// percentiles: the point aggregates the finite remainder and `samples`
/// records how many survived.  A point with no finite sample at all stays
/// honestly +inf (samples = 0) — never an alias of a large real value.
/// Accumulation runs in index order, so the result is bit-identical for
/// any thread count as long as `values` is assembled in trial order.
CurvePoint aggregate_samples(const std::vector<double>& values);

/// One metric across trials: series[t][step], every trial the same
/// length.  One CurvePoint per step via aggregate_samples.
MetricCurve aggregate_series(const std::vector<std::vector<double>>& series, std::string name);

struct IspImpact {
  isp::IspId isp = isp::kNoIsp;
  double mean_links_lost = 0.0;
  double p95_links_lost = 0.0;
  double max_links_lost = 0.0;

  bool operator==(const IspImpact&) const = default;
};

struct CampaignReport {
  std::string stressor;  ///< human-readable stressor description
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  std::size_t steps = 0;

  MetricCurve conduits_down;
  MetricCurve connectivity;
  MetricCurve components;
  MetricCurve links_hit;
  MetricCurve isps_hit;
  MetricCurve weight_lost;
  /// ISPs with any observed damage, descending by mean_links_lost.
  std::vector<IspImpact> isp_impact;

  bool operator==(const CampaignReport&) const = default;
};

/// Fold per-trial results (in trial order) into the aggregate report.
/// Every trial must have the same number of points.  The (metric, step)
/// columns fold in parallel on `executor`, each in trial order, so the
/// report is bit-identical for any thread count.  Stressor/seed/trials/
/// steps metadata is filled in by the campaign driver.
CampaignReport aggregate_trials(const std::vector<TrialResult>& trials, std::size_t num_isps,
                                Executor& executor);

/// Fold per-trial per-ISP loss counts (losses[t][isp]) into the damage
/// table: ISPs with any observed loss, descending by mean.  Shared by the
/// campaign and cascade aggregators; accumulation is in trial order.
std::vector<IspImpact> aggregate_isp_impact(const std::vector<std::vector<std::uint32_t>>& losses,
                                            std::size_t num_isps);

/// Render the curves and the per-ISP table with util/table.  `profiles`
/// (when given) supplies ISP display names.
std::string render_report(const CampaignReport& report,
                          const std::vector<isp::IspProfile>* profiles = nullptr);

/// The step curves as CSV (one row per step, one column group per metric).
std::string report_curves_csv(const CampaignReport& report);

}  // namespace intertubes::sim
