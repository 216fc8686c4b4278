// Benchmarks for the cascade/ cross-layer failure-propagation workload.
//
// The headline comparison is BM_CascadeCampaign at thread count 0 (serial)
// vs 2/4/8 (executor fan-out): trials_per_second, computed from wall-clock
// time, should scale up to the machine's core count while the report stays
// bit-identical (the identity is proven by tests/prop/prop_cascade_test.cpp;
// this harness measures the speed).  Also times one Monte-Carlo trial, the
// single run_cascade a serve/ WhatIfCascade request pays on a cache miss,
// and a full percolation sweep.
//
// Extra flag: `--trials=small` shrinks benchmark min-time for CI smoke
// runs (rewritten to --benchmark_min_time=0.01 before native parsing).
#include <cstring>
#include <memory>

#include "artifact/renderers.hpp"
#include "bench_support.hpp"
#include "cascade/cascade.hpp"
#include "sim/executor.hpp"

namespace {

using namespace intertubes;

const cascade::CascadeEngine& engine() {
  static const cascade::CascadeEngine e(bench::map(), &bench::l3_topology(),
                                        &bench::cities(), &bench::row());
  return e;
}

cascade::CascadeConfig campaign_config() {
  cascade::CascadeConfig config;
  config.stressor = sim::Stressor::random_cuts(4);
  config.trials = 32;
  config.seed = bench::kSeed;
  return config;
}

/// One Monte-Carlo trial: stressor draw + cascade to the fixed point.
void BM_CascadeTrial(benchmark::State& state) {
  const auto config = campaign_config();
  std::size_t trial = 0;
  for (auto _ : state) {
    const auto result = engine().run_trial(config, trial % config.trials);
    benchmark::DoNotOptimize(result.rounds.back().demand_delivered);
    ++trial;
  }
}
BENCHMARK(BM_CascadeTrial)->Unit(benchmark::kMillisecond);

/// The full campaign.  Thread count 0 is the serial path (no executor);
/// higher counts fan the trials out — bit-identical by construction.  Timed
/// on the wall clock (the main thread only waits on the workers), with a
/// minimum time that averages each reading over at least ten campaigns
/// (one campaign takes about 50 ms on one core).
void BM_CascadeCampaign(benchmark::State& state) {
  const auto config = campaign_config();
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<sim::Executor> executor;
  if (threads > 0) executor = std::make_unique<sim::Executor>(threads);
  for (auto _ : state) {
    const auto report = engine().run(config, executor.get());
    benchmark::DoNotOptimize(report.conduits_dead.points.data());
  }
  state.counters["trials_per_second"] = benchmark::Counter(
      static_cast<double>(config.trials), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CascadeCampaign)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0)
    ->UseRealTime();

/// The single run_cascade a serve/ WhatIfCascade request pays on a cache
/// miss: the twelve most-shared conduits cut at once.
void BM_WhatIfCascade(benchmark::State& state) {
  const auto cuts = bench::risk_matrix().most_shared_conduits(12);
  const cascade::CascadeParams params;
  for (auto _ : state) {
    const auto outcome = engine().run_cascade(cuts, params);
    benchmark::DoNotOptimize(outcome.rounds.back().l3_reachability);
  }
}
BENCHMARK(BM_WhatIfCascade)->Unit(benchmark::kMillisecond);

/// A percolation sweep (structural metrics across the fraction-removed
/// grid) under the random-cuts adversary.
void BM_Percolation(benchmark::State& state) {
  cascade::PercolationConfig config;
  config.trials = 8;
  config.seed = bench::kSeed;
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<sim::Executor> executor;
  if (threads > 0) executor = std::make_unique<sim::Executor>(threads);
  for (auto _ : state) {
    const auto report = engine().percolation(config, executor.get());
    benchmark::DoNotOptimize(report.giant_component.points.data());
  }
}
BENCHMARK(BM_Percolation)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  intertubes::bench::init(&argc, argv);
  bench::artifact_banner("CASCADE", "cross-layer cascade & percolation (overload rounds)");
  sim::Executor executor(4);
  const auto report = engine().run(campaign_config(), &executor);
  std::cout << artifact::render_cascade(report, &bench::truth().profiles());
  cascade::PercolationConfig sweep;
  sweep.trials = 8;
  sweep.seed = bench::kSeed;
  std::cout << "\n" << artifact::render_percolation(engine().percolation(sweep, &executor));

  // --trials=small rewrites to a short min-time for CI smoke runs.
  std::vector<char*> args(argv, argv + argc);
  static char small[] = "--benchmark_min_time=0.01";
  for (auto& arg : args) {
    if (std::strcmp(arg, "--trials=small") == 0) arg = small;
  }
  int n = static_cast<int>(args.size());
  return bench::run_benchmarks(n, args.data());
}
