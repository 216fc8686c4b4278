// Ablation A4 — geographically correlated failures (the disasters of §7's
// motivation: the 2003 blackout, hurricanes, quakes).
//
// A disaster is a disc that severs every conduit inside it.  The study
// reports typical and worst-case impact at several radii, the worst-case
// disaster placement found by grid search, and the per-ISP exposure — the
// geographic complement to the risk matrix.
#include "bench_support.hpp"
#include "risk/geo_hazard.hpp"
#include "util/table.hpp"

namespace {

using namespace intertubes;

void print_artifact() {
  const auto& map = bench::scenario().map();
  const auto& row = bench::scenario().row();
  const auto& cities = core::Scenario::cities();
  bench::artifact_banner("Ablation: regional disasters",
                         "correlated conduit failures at population-weighted locations");

  TextTable table({"radius km", "mean conduits cut", "mean links hit", "p95 links hit",
                   "mean connectivity", "worst links hit"});
  for (const double radius : {50.0, 100.0, 200.0, 350.0}) {
    const auto study = risk::hazard_study(map, cities, row, radius, 120, bench::kSeed);
    table.start_row();
    table.add_cell(radius, 0);
    table.add_cell(study.mean_conduits_cut, 1);
    table.add_cell(study.mean_links_hit, 1);
    table.add_cell(study.p95_links_hit, 1);
    table.add_cell(study.mean_connectivity, 3);
    table.add_cell(static_cast<std::size_t>(study.worst_impact.links_hit));
  }
  std::cout << table.render("Monte-Carlo disaster study (120 samples per radius)");

  const auto worst = risk::worst_case_placement(map, cities, row, 100.0, 100.0);
  const auto worst_impact = risk::assess_hazard(map, row, worst);
  std::cout << "\nworst-case 100 km disaster placement (grid search): near "
            << cities.city(cities.nearest(worst.center)).display_name() << " — cuts "
            << worst_impact.conduits_cut << " conduits, hits " << worst_impact.links_hit
            << " links across " << worst_impact.isps_hit << " ISPs (connectivity "
            << format_double(worst_impact.connectivity, 3) << ")\n";

  const auto exposure =
      risk::isp_hazard_exposure(map, cities, row, 100.0, 120, bench::kSeed);
  const auto& profiles = bench::scenario().truth().profiles();
  std::vector<isp::IspId> order(profiles.size());
  for (isp::IspId i = 0; i < profiles.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&exposure](isp::IspId x, isp::IspId y) { return exposure[x] > exposure[y]; });
  std::cout << "\nper-ISP expected fraction of links hit by a random 100 km disaster:\n";
  for (isp::IspId i : order) {
    std::cout << "  " << profiles[i].name << ": " << format_double(exposure[i], 3) << "\n";
  }
  std::cout << "reading: geographic concentration (footprints bunched through the same "
               "metros) is a risk dimension conduit-sharing counts alone do not capture\n";
}

void BM_AssessHazard(benchmark::State& state) {
  sim::HazardRegion region;
  region.center = core::Scenario::cities()
                      .city(*core::Scenario::cities().find("Chicago, IL"))
                      .location;
  region.radius_km = 100.0;
  for (auto _ : state) {
    auto impact = risk::assess_hazard(bench::scenario().map(), bench::scenario().row(), region);
    benchmark::DoNotOptimize(impact.links_hit);
  }
}
BENCHMARK(BM_AssessHazard)->Unit(benchmark::kMicrosecond);

void BM_WorstCasePlacement(benchmark::State& state) {
  for (auto _ : state) {
    auto worst = risk::worst_case_placement(bench::scenario().map(), core::Scenario::cities(),
                                            bench::scenario().row(), 100.0, 200.0);
    benchmark::DoNotOptimize(worst.radius_km);
  }
}
BENCHMARK(BM_WorstCasePlacement)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  intertubes::bench::init(&argc, argv);
  print_artifact();
  return intertubes::bench::run_benchmarks(argc, argv);
}
