// Experiment E9 — Figure 10: path inflation (PI) and shared-risk
// reduction (SRR) per ISP when the robustness-suggestion framework
// re-routes around the twelve most heavily shared conduits.
//
// Paper: adding one-to-two conduits not previously used by an ISP yields
// a large reduction in shared risk across all networks; nearly all the
// attainable benefit comes from these modest additions.
#include <chrono>

#include "artifact/renderers.hpp"
#include "bench_support.hpp"
#include "optimize/robustness.hpp"
#include "util/table.hpp"

namespace {

using namespace intertubes;

std::vector<core::ConduitId> targets() { return bench::risk_matrix().most_shared_conduits(12); }

// The formatting (targets, per-ISP PI/SRR table, §5.1 network-wide gain)
// lives in artifact::render_fig10 — the same bytes the golden regression
// test pins against tests/golden/fig10.golden.  Wall time stays here:
// renderers are pure, timing is a harness concern.
void print_artifact() {
  bench::artifact_banner("Figure 10", "rendered by artifact::render_fig10 (golden-pinned)");
  // Warm the lazily built scenario + matrix so the wall time measures the
  // artifact computation, not the one-off world generation.
  const auto& scenario = bench::scenario();
  const auto& matrix = bench::risk_matrix();
  const auto wall_start = std::chrono::steady_clock::now();
  const auto rendered = artifact::render_fig10(scenario, matrix);
  const auto wall_end = std::chrono::steady_clock::now();
  std::cout << rendered;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  std::cout << "\nartifact wall time " << format_double(wall_ms, 1) << " ms\n";
}

void BM_SuggestReroute(benchmark::State& state) {
  const auto target_set = targets();
  std::size_t i = 0;
  for (auto _ : state) {
    auto s = optimize::suggest_reroute(bench::scenario().map(), bench::risk_matrix(),
                                       target_set[i % target_set.size()], 0);
    benchmark::DoNotOptimize(s.shared_risk_reduction);
    ++i;
  }
}
BENCHMARK(BM_SuggestReroute)->Unit(benchmark::kMicrosecond);

void BM_SummarizeRobustnessAllIsps(benchmark::State& state) {
  const auto target_set = targets();
  for (auto _ : state) {
    auto summaries =
        optimize::summarize_robustness(bench::scenario().map(), bench::risk_matrix(), target_set);
    benchmark::DoNotOptimize(summaries.size());
  }
}
BENCHMARK(BM_SummarizeRobustnessAllIsps)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  intertubes::bench::init(&argc, argv);
  print_artifact();
  return intertubes::bench::run_benchmarks(argc, argv);
}
