#include "sim/report.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "sim/executor.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace intertubes::sim {

CurvePoint aggregate_samples(const std::vector<double>& values) {
  std::vector<double> kept;
  kept.reserve(values.size());
  double sum = 0.0;
  for (double v : values) {  // ordered accumulation
    if (!std::isfinite(v)) continue;
    kept.push_back(v);
    sum += v;
  }
  CurvePoint point;
  point.samples = kept.size();
  if (kept.empty()) {
    point.mean = point.p5 = point.p50 = point.p95 = std::numeric_limits<double>::infinity();
    return point;
  }
  point.mean = sum / static_cast<double>(kept.size());
  std::sort(kept.begin(), kept.end());
  point.p5 = percentile_of_sorted(kept, 5.0);
  point.p50 = percentile_of_sorted(kept, 50.0);
  point.p95 = percentile_of_sorted(kept, 95.0);
  return point;
}

MetricCurve aggregate_series(const std::vector<std::vector<double>>& series, std::string name) {
  IT_CHECK(!series.empty());
  const std::size_t steps = series.front().size();
  for (const auto& trial : series) {
    IT_CHECK_MSG(trial.size() == steps, "series disagree on step count");
  }
  MetricCurve curve;
  curve.name = std::move(name);
  curve.points.resize(steps);
  std::vector<double> values(series.size());
  for (std::size_t step = 0; step < steps; ++step) {
    for (std::size_t t = 0; t < series.size(); ++t) values[t] = series[t][step];
    curve.points[step] = aggregate_samples(values);
  }
  return curve;
}

namespace {

/// One report curve and the per-trial sample it reads.
struct MetricColumns {
  MetricCurve CampaignReport::*curve;
  const char* name;
  double (*extract)(const TrialPoint&);
};

// Campaign metrics are always finite, so aggregate_samples drops nothing
// here — the same code path that hardens the +inf-carrying cascade
// curves.
constexpr MetricColumns kMetrics[] = {
    {&CampaignReport::conduits_down, "conduits down",
     [](const TrialPoint& p) { return static_cast<double>(p.conduits_down); }},
    {&CampaignReport::connectivity, "connectivity",
     [](const TrialPoint& p) { return p.connected_pair_fraction; }},
    {&CampaignReport::components, "components",
     [](const TrialPoint& p) { return static_cast<double>(p.components); }},
    {&CampaignReport::links_hit, "links hit",
     [](const TrialPoint& p) { return static_cast<double>(p.links_hit); }},
    {&CampaignReport::isps_hit, "ISPs hit",
     [](const TrialPoint& p) { return static_cast<double>(p.isps_hit); }},
    {&CampaignReport::weight_lost, "risk weight lost",
     [](const TrialPoint& p) { return p.weight_lost; }},
};

}  // namespace

CampaignReport aggregate_trials(const std::vector<TrialResult>& trials, std::size_t num_isps,
                                Executor& executor) {
  IT_CHECK(!trials.empty());
  const std::size_t steps = trials.front().points.size();
  for (const auto& trial : trials) {
    IT_CHECK_MSG(trial.points.size() == steps, "trials disagree on step count");
    IT_CHECK_MSG(trial.isp_links_lost.size() == num_isps, "trials disagree on ISP count");
  }

  CampaignReport report;
  for (const auto& metric : kMetrics) {
    MetricCurve& curve = report.*metric.curve;
    curve.name = metric.name;
    curve.points.resize(steps);
  }
  // Each (metric, step) column folds its samples in trial order and
  // writes only its own CurvePoint, so the columns run in parallel and
  // the report is bit-identical for any thread count.
  executor.parallel_for(0, std::size(kMetrics) * steps, [&](std::size_t column) {
    const auto& metric = kMetrics[column / steps];
    const std::size_t step = column % steps;
    std::vector<double> values(trials.size());
    for (std::size_t t = 0; t < trials.size(); ++t) {
      values[t] = metric.extract(trials[t].points[step]);
    }
    (report.*metric.curve).points[step] = aggregate_samples(values);
  });

  std::vector<std::vector<std::uint32_t>> losses(trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) losses[t] = trials[t].isp_links_lost;
  report.isp_impact = aggregate_isp_impact(losses, num_isps);
  return report;
}

std::vector<IspImpact> aggregate_isp_impact(const std::vector<std::vector<std::uint32_t>>& losses,
                                            std::size_t num_isps) {
  IT_CHECK(!losses.empty());
  for (const auto& trial : losses) {
    IT_CHECK_MSG(trial.size() == num_isps, "trials disagree on ISP count");
  }
  std::vector<IspImpact> table;
  std::vector<double> values(losses.size());
  for (isp::IspId i = 0; i < num_isps; ++i) {
    double sum = 0.0;
    double worst = 0.0;
    for (std::size_t t = 0; t < losses.size(); ++t) {
      values[t] = static_cast<double>(losses[t][i]);
      sum += values[t];
      worst = std::max(worst, values[t]);
    }
    if (worst <= 0.0) continue;
    IspImpact impact;
    impact.isp = i;
    impact.mean_links_lost = sum / static_cast<double>(losses.size());
    impact.p95_links_lost = percentile(values, 95.0);
    impact.max_links_lost = worst;
    table.push_back(impact);
  }
  std::stable_sort(table.begin(), table.end(), [](const IspImpact& a, const IspImpact& b) {
    return a.mean_links_lost > b.mean_links_lost;
  });
  return table;
}

std::string render_report(const CampaignReport& report,
                          const std::vector<isp::IspProfile>* profiles) {
  std::string out = "campaign: " + report.stressor + " — " + std::to_string(report.trials) +
                    " trials × " + std::to_string(report.steps) + " failure steps\n\n";

  TextTable curve_table({"step", "conduits", "conn mean", "conn p5", "conn p50", "conn p95",
                         "comps", "links hit", "links p95", "ISPs hit", "weight lost"});
  for (std::size_t step = 0; step < report.connectivity.points.size(); ++step) {
    curve_table.start_row();
    curve_table.add_cell(step);
    curve_table.add_cell(report.conduits_down.points[step].mean, 1);
    curve_table.add_cell(report.connectivity.points[step].mean, 4);
    curve_table.add_cell(report.connectivity.points[step].p5, 4);
    curve_table.add_cell(report.connectivity.points[step].p50, 4);
    curve_table.add_cell(report.connectivity.points[step].p95, 4);
    curve_table.add_cell(report.components.points[step].mean, 2);
    curve_table.add_cell(report.links_hit.points[step].mean, 1);
    curve_table.add_cell(report.links_hit.points[step].p95, 1);
    curve_table.add_cell(report.isps_hit.points[step].mean, 2);
    curve_table.add_cell(report.weight_lost.points[step].mean, 4);
  }
  out += curve_table.render("degradation curve (across trials)");

  if (!report.isp_impact.empty()) {
    TextTable isp_table({"ISP", "mean links lost", "p95", "max"});
    for (const auto& impact : report.isp_impact) {
      isp_table.start_row();
      if (profiles && impact.isp < profiles->size()) {
        isp_table.add_cell((*profiles)[impact.isp].name);
      } else {
        isp_table.add_cell("isp " + std::to_string(impact.isp));
      }
      isp_table.add_cell(impact.mean_links_lost, 2);
      isp_table.add_cell(impact.p95_links_lost, 1);
      isp_table.add_cell(impact.max_links_lost, 1);
    }
    out += "\n" + isp_table.render("per-ISP impact at the final step");
  }
  return out;
}

std::string report_curves_csv(const CampaignReport& report) {
  TextTable table({"step", "conduits_down_mean", "connectivity_mean", "connectivity_p5",
                   "connectivity_p50", "connectivity_p95", "components_mean", "links_hit_mean",
                   "links_hit_p95", "isps_hit_mean", "weight_lost_mean"});
  for (std::size_t step = 0; step < report.connectivity.points.size(); ++step) {
    table.start_row();
    table.add_cell(step);
    table.add_cell(report.conduits_down.points[step].mean, 6);
    table.add_cell(report.connectivity.points[step].mean, 6);
    table.add_cell(report.connectivity.points[step].p5, 6);
    table.add_cell(report.connectivity.points[step].p50, 6);
    table.add_cell(report.connectivity.points[step].p95, 6);
    table.add_cell(report.components.points[step].mean, 6);
    table.add_cell(report.links_hit.points[step].mean, 6);
    table.add_cell(report.links_hit.points[step].p95, 6);
    table.add_cell(report.isps_hit.points[step].mean, 6);
    table.add_cell(report.weight_lost.points[step].mean, 6);
  }
  return table.to_csv();
}

}  // namespace intertubes::sim
