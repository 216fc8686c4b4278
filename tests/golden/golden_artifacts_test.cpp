// Golden-artifact regression tests: the Table 1 / Figure 6 / Figure 10
// renderings of the canonical scenario, its serialized dataset, a small
// traceroute campaign over it, the overlay of the shared campaign, the
// Figure 11 expansion sweep, a set of cascade outcomes, the failure
// analyses' connectivity outputs, the risk/ cut and hazard analyses and
// the all-pairs latency dissection, pinned byte-for-byte against
// checked-in fixtures.  The renderers in
// src/artifact are the same code the bench harnesses print, so any
// accounting change to the headline numbers must be made explicitly:
// regenerate with
//
//   INTERTUBES_GOLDEN_REGEN=1 ./intertubes_tests --gtest_filter='GoldenArtifacts*'
//
// and commit the fixture diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "artifact/renderers.hpp"
#include "cascade/cascade.hpp"
#include "core/dataset_io.hpp"
#include "dissect/dissector.hpp"
#include "optimize/expansion.hpp"
#include "risk/cuts.hpp"
#include "risk/geo_hazard.hpp"
#include "risk/risk_matrix.hpp"
#include "serve/fastpath.hpp"
#include "serve/snapshot.hpp"
#include "sim/campaign.hpp"
#include "test_support.hpp"
#include "traceroute/campaign.hpp"
#include "traceroute/campaign_fixture.hpp"
#include "traceroute/overlay.hpp"
#include "transport/undersea.hpp"

#ifndef INTERTUBES_GOLDEN_DIR
#error "INTERTUBES_GOLDEN_DIR must be defined by the build"
#endif

namespace intertubes::testing {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(INTERTUBES_GOLDEN_DIR) + "/" + name;
}

bool regen_requested() {
  const char* env = std::getenv("INTERTUBES_GOLDEN_REGEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = fixture_path(name);
  if (regen_requested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write fixture " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path << " (" << actual.size() << " bytes)";
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " — regenerate with INTERTUBES_GOLDEN_REGEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();
  EXPECT_EQ(actual, expected)
      << "artifact drifted from " << path
      << "; if the change is intentional, regenerate with INTERTUBES_GOLDEN_REGEN=1 and "
         "commit the fixture diff";
}

const risk::RiskMatrix& shared_matrix() {
  static const risk::RiskMatrix matrix = risk::RiskMatrix::from_map(shared_scenario().map());
  return matrix;
}

TEST(GoldenArtifacts, Table1MapSummary) {
  check_golden("table1.golden", artifact::render_table1(shared_scenario()));
}

TEST(GoldenArtifacts, Fig6SharingDistribution) {
  check_golden("fig6.golden", artifact::render_fig6(shared_scenario(), shared_matrix()));
}

TEST(GoldenArtifacts, Fig10Robustness) {
  check_golden("fig10.golden", artifact::render_fig10(shared_scenario(), shared_matrix()));
}

TEST(GoldenArtifacts, DatasetBytes) {
  // The pipeline's whole output: every node, conduit, tenant, validation
  // flag and link of the canonical map, as the dataset writer emits it.
  const auto& scenario = shared_scenario();
  check_golden("dataset.golden",
               core::serialize_dataset(scenario.map(), core::Scenario::cities(), scenario.row(),
                                       scenario.truth().profiles()));
}

TEST(GoldenArtifacts, CampaignBytes) {
  // A seed-0x1257 traceroute campaign over the canonical world: the flow
  // order and counts, every hop's DNS name and decoded ISP, and the
  // corridors under each route.
  auto params = testing::shared_campaign_params();
  params.num_probes = 400;
  const auto& cities = core::Scenario::cities();
  check_golden("campaign.golden",
               traceroute::serialize_campaign(
                   traceroute::run_campaign(testing::shared_l3_topology(), cities, params),
                   cities));
}

/// A double in its shortest round-trip form: two fixtures agree byte for
/// byte only when every value agrees bit for bit.
std::string exact(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

TEST(GoldenArtifacts, Expansion) {
  // Figure 11's greedy build-out at full precision: every ISP at k = 5 on
  // the canonical world, with the corridor each step adds, the average
  // shared risk and improvement ratio after it, and the demands left
  // without a route.
  const auto& scenario = shared_scenario();
  std::ostringstream out;
  for (isp::IspId isp = 0; isp < scenario.map().num_isps(); ++isp) {
    const auto result = optimize::optimize_expansion(scenario.map(), scenario.row(), isp, 5);
    out << "isp " << isp << ": baseline " << exact(result.baseline_avg_shared_risk)
        << ", unreachable " << result.unreachable_demands << "\n";
    for (const auto& step : result.steps) {
      out << "  added ";
      if (step.added == transport::kNoCorridor) {
        out << "none";
      } else {
        out << step.added;
      }
      out << ": avg " << exact(step.avg_shared_risk) << ", improvement "
          << exact(step.improvement_ratio) << ", unreachable " << step.unreachable_demands
          << "\n";
    }
  }
  check_golden("expansion.golden", out.str());
}

TEST(GoldenArtifacts, Overlay) {
  // The §4.3 overlay of the shared 60 000-probe campaign onto the
  // canonical map: segment accounting, every conduit's probes by direction
  // and observed ISPs, and the attribution accuracy against ground truth.
  const auto& map = shared_scenario().map();
  const auto& campaign = shared_campaign();
  const auto overlay = traceroute::overlay_campaign(map, core::Scenario::cities(), campaign);
  std::ostringstream out;
  out << "segments mapped " << overlay.mapped_segments << ", unmapped "
      << overlay.unmapped_segments << "\n";
  for (core::ConduitId cid = 0; cid < overlay.usage.size(); ++cid) {
    const auto& usage = overlay.usage[cid];
    out << "conduit " << cid << ": w->e " << usage.probes_west_east << ", e->w "
        << usage.probes_east_west << ", isps";
    for (isp::IspId isp : usage.observed_isps) out << ' ' << isp;
    out << "\n";
  }
  const auto accuracy = traceroute::evaluate_overlay_accuracy(map, campaign);
  out << "accuracy: precision " << exact(accuracy.corridor_precision) << ", recall "
      << exact(accuracy.corridor_recall) << ", fully correct "
      << exact(accuracy.flows_fully_correct) << ", probes " << accuracy.probes_evaluated << "\n";
  check_golden("overlay.golden", out.str());
}

std::string render_outcome(const cascade::CascadeOutcome& outcome) {
  std::ostringstream out;
  for (const auto& p : outcome.rounds) {
    out << "  round " << p.round << ": dead " << p.conduits_dead << ", overload "
        << p.overload_failed << ", giant " << exact(p.giant_component) << ", l3_dead "
        << exact(p.l3_edges_dead) << ", l3_reach " << exact(p.l3_reachability)
        << ", delivered " << exact(p.demand_delivered) << ", stretch "
        << exact(p.mean_stretch) << "\n";
  }
  out << "  overload_failures:";
  for (auto c : outcome.overload_failures) out << ' ' << c;
  out << "\n  isp_links_lost:";
  for (auto n : outcome.isp_links_lost) out << ' ' << n;
  out << "\n  fixed_point_round " << outcome.fixed_point_round << ", converged "
      << (outcome.converged ? "yes" : "no") << "\n";
  return out.str();
}

TEST(GoldenArtifacts, CascadeOutcomes) {
  // Overload cascades on the canonical world: sixteen seeded random_cuts(8)
  // draws plus the twelve most-shared conduits, under unit demands and
  // under §4.3 traffic weights from the shared campaign's overlay.  The
  // weighted run pins the order in which per-conduit loads are summed.
  const auto& scenario = shared_scenario();
  const auto& map = scenario.map();
  const auto& cities = core::Scenario::cities();
  std::vector<std::pair<std::string, std::vector<core::ConduitId>>> cut_sets;
  const sim::CampaignEngine draws(map, &cities, &scenario.row());
  for (std::size_t trial = 0; trial < 16; ++trial) {
    std::vector<core::ConduitId> cuts;
    for (const auto& step : draws.draw_cuts(sim::Stressor::random_cuts(8), 0x1257, trial)) {
      cuts.insert(cuts.end(), step.begin(), step.end());
    }
    cut_sets.emplace_back("random_cuts(8) trial " + std::to_string(trial), std::move(cuts));
  }
  cut_sets.emplace_back("most_shared_conduits(12)", shared_matrix().most_shared_conduits(12));

  const auto overlay =
      traceroute::overlay_campaign(map, cities, testing::shared_campaign());
  std::vector<std::uint64_t> probes;
  for (const auto& usage : overlay.usage) probes.push_back(usage.total());
  const auto weights = cascade::traffic_demand_weights(map, probes);

  const auto& l3 = testing::shared_l3_topology();
  const cascade::CascadeEngine unit(map, &l3, &cities, &scenario.row());
  const cascade::CascadeEngine weighted(map, &l3, &cities, &scenario.row(), nullptr, &weights);
  std::ostringstream out;
  const auto run_all = [&](const char* demands, const cascade::CascadeEngine& engine) {
    for (const auto& [label, cuts] : cut_sets) {
      out << demands << ", " << label << ", cuts";
      for (auto c : cuts) out << ' ' << c;
      out << "\n" << render_outcome(engine.run_cascade(cuts, {}));
    }
  };
  run_all("unit demands", unit);
  run_all("traffic-weighted demands", weighted);
  check_golden("cascade.golden", out.str());
}

std::string render_curve(const sim::MetricCurve& curve) {
  std::ostringstream out;
  out << "  " << curve.name << "\n";
  for (std::size_t step = 0; step < curve.points.size(); ++step) {
    const auto& p = curve.points[step];
    out << "    " << step << ": mean " << exact(p.mean) << ", p5 " << exact(p.p5) << ", p50 "
        << exact(p.p50) << ", p95 " << exact(p.p95) << ", samples " << p.samples << "\n";
  }
  return out.str();
}

std::string render_campaign(const sim::CampaignReport& report) {
  std::ostringstream out;
  out << "campaign: " << report.stressor << ", seed " << report.seed << ", trials "
      << report.trials << ", steps " << report.steps << "\n";
  for (const auto* curve : {&report.conduits_down, &report.connectivity, &report.components,
                            &report.links_hit, &report.isps_hit, &report.weight_lost}) {
    out << render_curve(*curve);
  }
  out << "  isp_impact\n";
  for (const auto& impact : report.isp_impact) {
    out << "    isp " << impact.isp << ": mean " << exact(impact.mean_links_lost) << ", p95 "
        << exact(impact.p95_links_lost) << ", max " << exact(impact.max_links_lost) << "\n";
  }
  return out.str();
}

TEST(GoldenArtifacts, FailureCampaigns) {
  // Every failure analysis that measures connectivity under accumulating
  // cuts, on the canonical world: the three bench_sim_campaign campaigns,
  // both failure_curve strategies, percolation under all three
  // adversaries with the L3 topology, hazard discs and what-if cuts.
  const auto& scenario = shared_scenario();
  const auto& map = scenario.map();
  const auto& cities = core::Scenario::cities();
  std::ostringstream out;

  const auto overlay = traceroute::overlay_campaign(map, cities, testing::shared_campaign());
  std::vector<std::uint64_t> probes;
  for (const auto& usage : overlay.usage) probes.push_back(usage.total());
  const sim::CampaignEngine campaigns(map, &cities, &scenario.row(), probes);
  sim::CampaignConfig config;
  config.seed = 0x1257;
  config.stressor = sim::Stressor::random_cuts(25);
  config.trials = 96;
  out << render_campaign(campaigns.run(config));
  config.stressor = sim::Stressor::targeted_cuts(25);
  config.trials = 1;
  out << render_campaign(campaigns.run(config));
  config.stressor = sim::Stressor::correlated_hazards(5, 120.0);
  config.trials = 64;
  out << render_campaign(campaigns.run(config));

  for (const auto strategy : {risk::FailureStrategy::Random, risk::FailureStrategy::MostSharedFirst}) {
    out << "failure_curve "
        << (strategy == risk::FailureStrategy::Random ? "random" : "most shared first") << "\n";
    for (const auto& p : risk::failure_curve(map, strategy, 40, 12, 0x1257)) {
      out << "  " << p.failed << ": connected " << exact(p.connected_pair_fraction)
          << ", components " << exact(p.components) << "\n";
    }
  }

  const cascade::CascadeEngine structure(map, &testing::shared_l3_topology(), &cities,
                                         &scenario.row());
  for (const auto adversary : {sim::StressorKind::RandomCuts, sim::StressorKind::TargetedCuts,
                               sim::StressorKind::CorrelatedHazards}) {
    cascade::PercolationConfig sweep;
    sweep.adversary = adversary;
    sweep.hazard_radius_km = 120.0;
    sweep.resolution = 10;
    sweep.trials = 8;
    sweep.seed = 0x1257;
    const auto report = structure.percolation(sweep);
    out << "percolation: " << report.adversary << ", seed " << report.seed << ", trials "
        << report.trials << ", resolution " << report.resolution << "\n";
    for (const auto* curve : {&report.conduits_dead, &report.giant_component,
                              &report.l3_edges_dead, &report.l3_reachability}) {
      out << render_curve(*curve);
    }
  }

  for (const auto& [name, radius] : std::vector<std::pair<std::string, double>>{
           {"Chicago, IL", 120.0}, {"Dallas, TX", 120.0}, {"Denver, CO", 250.0},
           {"Atlanta, GA", 80.0}, {"Salt Lake City, UT", 300.0}}) {
    const auto id = cities.find(name);
    ASSERT_TRUE(id.has_value()) << name;
    sim::HazardRegion region;
    region.center = cities.city(*id).location;
    region.radius_km = radius;
    const auto impact = risk::assess_hazard(map, scenario.row(), region);
    out << "hazard " << name << " r=" << exact(radius) << ": conduits " << impact.conduits_cut
        << ", links " << impact.links_hit << ", isps " << impact.isps_hit << ", connectivity "
        << exact(impact.connectivity) << "\n";
  }

  const auto snap = serve::Snapshot::build(std::shared_ptr<const core::Scenario>(
      std::shared_ptr<const core::Scenario>{}, &scenario));
  std::vector<std::pair<std::string, std::vector<core::ConduitId>>> cut_sets;
  cut_sets.emplace_back("none", std::vector<core::ConduitId>{});
  cut_sets.emplace_back("most_shared_conduits(12)", shared_matrix().most_shared_conduits(12));
  for (std::size_t trial = 0; trial < 4; ++trial) {
    std::vector<core::ConduitId> cuts;
    for (const auto& step : campaigns.draw_cuts(sim::Stressor::random_cuts(8), 0x1257, trial)) {
      cuts.insert(cuts.end(), step.begin(), step.end());
    }
    cut_sets.emplace_back("random_cuts(8) trial " + std::to_string(trial), std::move(cuts));
  }
  std::vector<core::ConduitId> every_third;
  for (core::ConduitId c = 0; c < map.conduits().size(); c += 3) every_third.push_back(c);
  cut_sets.emplace_back("every third conduit", std::move(every_third));
  serve::fastpath::RequestScratch scratch;
  for (const auto& [label, cuts] : cut_sets) {
    serve::fastpath::CutImpact impact;
    ASSERT_TRUE(serve::fastpath::fast_what_if_cut(snap->soa(), cuts, scratch, impact));
    out << "what-if cut " << label << ": conduits " << impact.conduits_cut << ", links "
        << impact.links_severed << ", isps " << impact.isps_hit << ", before "
        << exact(impact.connected_fraction_before) << " (" << snap->soa().components_before
        << " components), after " << exact(impact.connected_fraction_after) << " ("
        << impact.components_after << " components)\n";
  }
  check_golden("failure_campaigns.golden", out.str());
}

std::string render_impact(const risk::HazardImpact& impact) {
  std::ostringstream out;
  out << "conduits " << impact.conduits_cut << ", links " << impact.links_hit << ", isps "
      << impact.isps_hit << ", connectivity " << exact(impact.connectivity);
  return out.str();
}

std::string render_region(const sim::HazardRegion& region) {
  return "center (" + exact(region.center.lat_deg) + ", " + exact(region.center.lon_deg) +
         ") r=" + exact(region.radius_km);
}

TEST(GoldenArtifacts, RiskAnalyses) {
  // The risk/ analyses the bench ablations print rounded, at full
  // precision: bridges, coast-to-coast min cuts with and without the
  // undersea festoons, both service-impact curves, the Monte-Carlo
  // disaster study at four radii, the grid-searched worst disaster and
  // the per-ISP hazard exposure.
  const auto& scenario = shared_scenario();
  const auto& map = scenario.map();
  const auto& row = scenario.row();
  const auto& cities = core::Scenario::cities();
  std::ostringstream out;

  out << "bridge_conduits:";
  for (auto c : risk::bridge_conduits(map)) out << ' ' << c;
  out << "\n";

  const auto festoons = transport::default_us_festoons(cities);
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"San Francisco, CA", "New York, NY"},
           {"Seattle, WA", "Miami, FL"},
           {"Los Angeles, CA", "Boston, MA"}}) {
    const auto a = cities.find(from);
    const auto b = cities.find(to);
    ASSERT_TRUE(a.has_value() && b.has_value()) << from << " / " << to;
    out << "min cut " << from << " <-> " << to << ": " << risk::min_conduit_cut(map, *a, *b)
        << " | undersea " << risk::min_conduit_cut_with_undersea(map, festoons, *a, *b) << "\n";
  }

  for (const auto strategy : {risk::FailureStrategy::Random, risk::FailureStrategy::MostSharedFirst}) {
    out << "service_impact_curve "
        << (strategy == risk::FailureStrategy::Random ? "random" : "most shared first") << "\n";
    for (const auto& p : risk::service_impact_curve(map, strategy, 40, 10, 0x1257)) {
      out << "  " << p.failed << ": links " << exact(p.links_hit) << ", isps "
          << exact(p.isps_hit) << "\n";
    }
  }

  for (const double radius : {50.0, 100.0, 200.0, 350.0}) {
    const auto study = risk::hazard_study(map, cities, row, radius, 120, 0x1257);
    out << "hazard_study r=" << exact(radius) << ": mean links " << exact(study.mean_links_hit)
        << ", p95 links " << exact(study.p95_links_hit) << ", mean conduits "
        << exact(study.mean_conduits_cut) << ", mean connectivity "
        << exact(study.mean_connectivity) << "\n  worst " << render_region(study.worst_region)
        << ": " << render_impact(study.worst_impact) << "\n";
  }

  const auto worst = risk::worst_case_placement(map, cities, row, 100.0, 100.0);
  out << "worst_case_placement " << render_region(worst) << ": "
      << render_impact(risk::assess_hazard(map, row, worst)) << "\n";

  out << "isp_hazard_exposure:";
  for (double e : risk::isp_hazard_exposure(map, cities, row, 100.0, 120, 0x1257)) {
    out << ' ' << exact(e);
  }
  out << "\n";
  check_golden("risk_analyses.golden", out.str());
}

std::string render_pair(const dissect::PairDissection& p) {
  return std::to_string(p.a) + "-" + std::to_string(p.b) + ": clat " + exact(p.clat_ms) +
         ", los " + exact(p.los_ms) + ", row " + exact(p.row_ms) + ", fiber " +
         exact(p.fiber_ms) + ", refraction " + exact(p.refraction_ms) + ", row_inflation " +
         exact(p.row_inflation_ms) + ", detour " + exact(p.detour_ms) + ", stretch " +
         exact(p.stretch) + ", achievable " + exact(p.achievable_ms) + ", reach " +
         (p.fiber_reachable ? "fiber" : "-") + "/" + (p.row_reachable ? "row" : "-");
}

TEST(GoldenArtifacts, Dissection) {
  // The §5.3 all-pairs speed-of-light study on the canonical world: the
  // counters and aggregates at full precision, the 20 pairs with the most
  // achievable delay, and every 500th pair in (i, j) order.
  const auto& scenario = shared_scenario();
  const dissect::LatencyDissector dissector(scenario.map(), core::Scenario::cities(),
                                            scenario.row());
  const auto study = dissector.dissect();
  std::ostringstream out;
  out << "nodes " << study.nodes.size() << ", pairs " << study.pairs.size()
      << ", fiber_unreachable " << study.fiber_unreachable << ", row_unreachable "
      << study.row_unreachable << ", within_target " << study.within_target << " at "
      << exact(study.target_factor) << "\n";
  out << "median_stretch " << exact(study.median_stretch) << ", p95_stretch "
      << exact(study.p95_stretch) << ", total_achievable_ms " << exact(study.total_achievable_ms)
      << "\n";
  std::vector<std::size_t> order(study.pairs.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  const std::size_t top = std::min<std::size_t>(20, order.size());
  std::partial_sort(order.begin(), order.begin() + top, order.end(),
                    [&](std::size_t x, std::size_t y) {
                      const double ax = study.pairs[x].achievable_ms;
                      const double ay = study.pairs[y].achievable_ms;
                      return ax != ay ? ax > ay : x < y;
                    });
  for (std::size_t k = 0; k < top; ++k) {
    out << "top " << k << " pair " << order[k] << " " << render_pair(study.pairs[order[k]])
        << "\n";
  }
  for (std::size_t k = 0; k < study.pairs.size(); k += 500) {
    out << "pair " << k << " " << render_pair(study.pairs[k]) << "\n";
  }
  check_golden("dissection.golden", out.str());
}

TEST(GoldenArtifacts, RenderersAreDeterministic) {
  // The fixtures are only meaningful if the renderers are pure functions
  // of the scenario: two renders must agree byte for byte.
  EXPECT_EQ(artifact::render_table1(shared_scenario()), artifact::render_table1(shared_scenario()));
  EXPECT_EQ(artifact::render_fig10(shared_scenario(), shared_matrix()),
            artifact::render_fig10(shared_scenario(), shared_matrix()));
}

}  // namespace
}  // namespace intertubes::testing
