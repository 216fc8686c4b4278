// Experiment E6 — Tables 2 and 3: the top-20 conduits by traceroute probe
// frequency, west-origin east-bound and east-origin west-bound.
//
// Paper: 4.9M Edgescope traceroutes over Jan–Mar 2014; top conduits mix
// major-metro pairs (Trenton–Edison, Dallas–Fort Worth) with popular
// waypoints (Casper WY, Billings MT).  Here: 500k simulated probes over
// the generated world.
#include "bench_support.hpp"
#include "util/table.hpp"

namespace {

using namespace intertubes;

void print_direction(traceroute::Direction dir, const char* label) {
  const auto& cities = core::Scenario::cities();
  const auto& map = bench::scenario().map();
  TextTable table({"location", "location", "# probes"});
  for (const auto& rc : bench::overlay().top_conduits(dir, 20)) {
    const auto& conduit = map.conduit(rc.conduit);
    table.start_row();
    table.add_cell(cities.city(conduit.a).display_name());
    table.add_cell(cities.city(conduit.b).display_name());
    table.add_cell(static_cast<long long>(rc.probes));
  }
  std::cout << table.render(label);
}

void print_artifact() {
  bench::artifact_banner("Tables 2 and 3",
                         "top 20 conduits by directional traceroute probe frequency");
  std::cout << "campaign: " << bench::campaign().total_probes << " probes, "
            << bench::campaign().flows.size() << " distinct flows, "
            << bench::overlay().mapped_segments << " segments mapped onto conduits\n\n";
  print_direction(traceroute::Direction::WestToEast,
                  "Table 2 — west-origin, east-bound probes");
  std::cout << "\n";
  print_direction(traceroute::Direction::EastToWest,
                  "Table 3 — east-origin, west-bound probes");
  std::cout << "\npaper shape: dominated by conduits at major population centers plus "
               "waypoint cities on transcontinental routes\n";
}

/// The 20 000-probe campaign, tracked by the regression gate: its minimum
/// time averages each reading over at least ten campaigns (one takes about
/// 150 ms), whatever --benchmark_min_time the run uses.
void BM_CampaignRouting(benchmark::State& state) {
  traceroute::CampaignParams params;
  params.seed = 0x77;
  params.num_probes = 20000;
  for (auto _ : state) {
    auto campaign = run_campaign(bench::l3_topology(), core::Scenario::cities(), params);
    benchmark::DoNotOptimize(campaign.flows.size());
  }
}
BENCHMARK(BM_CampaignRouting)->Unit(benchmark::kMillisecond)->MinTime(2.0);

void BM_OverlayCampaign(benchmark::State& state) {
  for (auto _ : state) {
    auto overlay = traceroute::overlay_campaign(bench::scenario().map(),
                                                core::Scenario::cities(), bench::campaign());
    benchmark::DoNotOptimize(overlay.mapped_segments);
  }
}
BENCHMARK(BM_OverlayCampaign)->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace

int main(int argc, char** argv) {
  intertubes::bench::init(&argc, argv);
  print_artifact();
  return intertubes::bench::run_benchmarks(argc, argv);
}
