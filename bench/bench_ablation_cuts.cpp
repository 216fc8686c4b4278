// Ablation A2 — fiber-cut resilience (§4's security remark, §8's future
// work): single points of failure, random-backhoe vs targeted-adversary
// failure campaigns, and coast-to-coast minimum conduit cuts.
#include "bench_support.hpp"
#include "risk/cuts.hpp"
#include "sim/campaign.hpp"
#include "util/table.hpp"

namespace {

using namespace intertubes;

void print_artifact() {
  const auto& map = bench::scenario().map();
  const auto& cities = core::Scenario::cities();
  bench::artifact_banner("Ablation: fiber cuts",
                         "bridges, failure curves, and coast-to-coast min cuts");

  const auto bridges = risk::bridge_conduits(map);
  std::cout << bridges.size() << " of " << map.conduits().size()
            << " conduits are single points of failure (bridges):\n";
  for (std::size_t i = 0; i < bridges.size() && i < 8; ++i) {
    const auto& conduit = map.conduit(bridges[i]);
    std::cout << "  " << cities.city(conduit.a).display_name() << " -- "
              << cities.city(conduit.b).display_name() << " (" << conduit.tenants.size()
              << " tenants)\n";
  }

  // One campaign per stressor: 10 random-backhoe trials, and the
  // deterministic most-shared-first adversary (one trial).
  const std::size_t max_failures = 40;
  const sim::CampaignEngine engine(map);
  const auto random = engine.run({sim::Stressor::random_cuts(max_failures), 10, bench::kSeed});
  const auto targeted = engine.run({sim::Stressor::targeted_cuts(max_failures), 1, bench::kSeed});
  TextTable table({"cuts", "connectivity (random)", "connectivity (targeted)",
                   "components (targeted)"});
  for (std::size_t f = 0; f <= max_failures; f += 5) {
    table.start_row();
    table.add_cell(f);
    table.add_cell(random.connectivity.points[f].mean, 3);
    table.add_cell(targeted.connectivity.points[f].mean, 3);
    table.add_cell(targeted.components.points[f].mean, 1);
  }
  std::cout << "\n" << table.render("fraction of node pairs still connected vs conduit cuts");
  std::cout << "\nreading: dense metro corridors have parallel paths, so even targeted cuts "
               "barely partition the graph — which is why the paper's risk model counts "
               "services in the tube, not reachability.  The service impact:\n\n";

  TextTable impact({"cuts", "links hit (random)", "links hit (targeted)", "ISPs hit (targeted)"});
  for (std::size_t f = 0; f <= max_failures; f += 5) {
    impact.start_row();
    impact.add_cell(f);
    impact.add_cell(random.links_hit.points[f].mean, 1);
    impact.add_cell(targeted.links_hit.points[f].mean, 1);
    impact.add_cell(targeted.isps_hit.points[f].mean, 1);
  }
  std::cout << impact.render("ISP links traversing >= 1 cut conduit (the shared-risk harm)");
  std::cout << "\nexpected shape: targeting shared conduits hits far more provider links per "
               "cut than random backhoes — shared risk is attack surface\n";

  // Coast-to-coast minimum cuts (the paper declined to publish the US
  // number for security reasons; our world is synthetic), with and
  // without the undersea festoons of footnote 8.
  const auto festoons = transport::default_us_festoons(cities);
  std::cout << "\nminimum conduit cuts between coastal hubs (terrestrial | +undersea):\n";
  const std::pair<const char*, const char*> pairs[] = {
      {"San Francisco, CA", "New York, NY"},
      {"Seattle, WA", "Miami, FL"},
      {"Los Angeles, CA", "Boston, MA"},
  };
  for (const auto& [from, to] : pairs) {
    const auto a = cities.find(from);
    const auto b = cities.find(to);
    if (!a || !b) continue;
    std::cout << "  " << from << " <-> " << to << ": " << risk::min_conduit_cut(map, *a, *b)
              << " | " << risk::min_conduit_cut_with_undersea(map, festoons, *a, *b)
              << " conduit-disjoint paths\n";
  }
  std::cout << "footnote 8, measured: counting coastal undersea festoons, partition takes "
               "strictly more cuts\n";
}

void BM_BridgeConduits(benchmark::State& state) {
  for (auto _ : state) {
    auto bridges = risk::bridge_conduits(bench::scenario().map());
    benchmark::DoNotOptimize(bridges.size());
  }
}
BENCHMARK(BM_BridgeConduits)->Unit(benchmark::kMicrosecond);

void BM_FailureCurveTargeted(benchmark::State& state) {
  for (auto _ : state) {
    const sim::CampaignEngine engine(bench::scenario().map());
    auto report = engine.run({sim::Stressor::targeted_cuts(20), 1, bench::kSeed});
    benchmark::DoNotOptimize(report.connectivity.points.size());
  }
}
BENCHMARK(BM_FailureCurveTargeted)->Unit(benchmark::kMillisecond);

void BM_MinConduitCut(benchmark::State& state) {
  const auto a = core::Scenario::cities().find("San Francisco, CA");
  const auto b = core::Scenario::cities().find("New York, NY");
  for (auto _ : state) {
    auto cut = risk::min_conduit_cut(bench::scenario().map(), *a, *b);
    benchmark::DoNotOptimize(cut);
  }
}
BENCHMARK(BM_MinConduitCut)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  intertubes::bench::init(&argc, argv);
  print_artifact();
  return intertubes::bench::run_benchmarks(argc, argv);
}
