// Ablation A1 — the "dig once" / Title II trade-off of §6.2, quantified.
//
// The paper argues that policies encouraging infrastructure sharing (dig
// once, joint trenching, Title II access to existing conduit) save money
// but "implicitly reduce overall resilience by explicitly enabling
// increased infrastructure sharing".  Here the ground-truth generator's
// reuse economics becomes the policy knob: scaling every ISP's
// reuse-discount toward 0 models ever-cheaper access to existing conduit.
// For each setting we regenerate the world and measure (a) how sharing
// concentrates and (b) how fast an adversary cutting the most-shared
// conduits first disconnects the network.
#include <algorithm>

#include "bench_support.hpp"
#include "risk/risk_matrix.hpp"
#include "sim/campaign.hpp"
#include "util/table.hpp"

namespace {

using namespace intertubes;

core::FiberMap world_at_policy(double discount_multiplier) {
  auto profiles = isp::default_profiles();
  for (auto& p : profiles) {
    p.reuse_discount = std::clamp(p.reuse_discount * discount_multiplier, 0.02, 1.0);
  }
  isp::GroundTruthParams params;
  params.seed = bench::kSeed;
  const auto truth = isp::generate_ground_truth(core::Scenario::cities(),
                                                bench::scenario().row(), profiles, params);
  return core::map_from_ground_truth(truth, bench::scenario().row());
}

void print_artifact() {
  bench::artifact_banner(
      "Ablation: dig-once policy",
      "sharing concentration and attack resilience vs conduit-access cost (§6.2)");

  TextTable table({"discount x", "conduits", ">=4 ISPs %", "max tenants",
                   "connectivity after 15 targeted cuts"});
  for (const double multiplier : {0.25, 0.5, 1.0, 1.5, 2.2}) {
    const auto map = world_at_policy(multiplier);
    const auto matrix = risk::RiskMatrix::from_map(map);
    const auto counts = matrix.conduits_shared_by_at_least();
    const double total = static_cast<double>(matrix.num_conduits());
    // The most-shared-first order is deterministic: one trial.
    const auto report =
        sim::CampaignEngine(map).run({sim::Stressor::targeted_cuts(15), 1, bench::kSeed});
    table.start_row();
    table.add_cell(multiplier, 2);
    table.add_cell(matrix.num_conduits());
    table.add_cell(counts.size() >= 4 ? 100.0 * static_cast<double>(counts[3]) / total : 0.0, 1);
    table.add_cell(counts.size());
    table.add_cell(report.connectivity.points.back().mean, 3);
  }
  std::cout << table.render();
  std::cout
      << "\nreading: multiplier < 1 = cheaper access to existing conduit (stronger dig-once / "
         "Title II forced access); > 1 = builds favor new trench.\n"
         "expected shape: cheaper access -> fewer, more crowded conduits -> the same 15 cuts "
         "strand more of the network (the §6.2 resilience cost of shared builds)\n";
}

void BM_GroundTruthRegeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto map = world_at_policy(1.0);
    benchmark::DoNotOptimize(map.conduits().size());
  }
}
BENCHMARK(BM_GroundTruthRegeneration)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  intertubes::bench::init(&argc, argv);
  print_artifact();
  return intertubes::bench::run_benchmarks(argc, argv);
}
