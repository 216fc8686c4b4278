// Simulation engine — the sim/ Monte-Carlo failure-campaign throughput.
//
// Prints the default campaign artifacts (random backhoe cuts, the
// most-shared-first adversary, and correlated disaster discs, each with
// traffic weights from the standard traceroute overlay), then times
// trials/sec serial vs parallel.  items_per_second in the google-benchmark
// output (add --benchmark_format=json for machine-readable numbers, as
// with every bench_* target) is campaign trials per second.
#include <chrono>
#include <thread>

#include "bench_support.hpp"
#include "sim/campaign.hpp"
#include "util/table.hpp"

namespace {

using namespace intertubes;

std::vector<std::uint64_t> probe_counts() {
  std::vector<std::uint64_t> out;
  for (const auto& usage : bench::overlay().usage) out.push_back(usage.total());
  return out;
}

const sim::CampaignEngine& engine() {
  static const sim::CampaignEngine e(bench::map(), &bench::cities(),
                                     &bench::row(), probe_counts());
  return e;
}

sim::CampaignConfig default_config() {
  sim::CampaignConfig config;
  config.stressor = sim::Stressor::random_cuts(25);
  config.trials = 96;
  config.seed = bench::kSeed;
  return config;
}

void print_artifact() {
  const auto& profiles = bench::truth().profiles();

  bench::artifact_banner("Simulation engine",
                         "Monte-Carlo failure campaigns (§4 cuts + §7 disasters)");
  auto config = default_config();
  std::cout << sim::render_report(engine().run(config), &profiles) << "\n";

  config.stressor = sim::Stressor::targeted_cuts(25);
  config.trials = 1;
  std::cout << sim::render_report(engine().run(config), &profiles) << "\n";

  config.stressor = sim::Stressor::correlated_hazards(5, 120.0);
  config.trials = 64;
  std::cout << sim::render_report(engine().run(config), &profiles) << "\n";

  // Serial vs parallel trials/sec on the default scenario (the executor
  // guarantees the *report* is identical either way).
  std::cout << "trials/sec, default random-cut campaign:\n";
  const auto timed = [&](std::size_t threads) {
    sim::Executor executor(threads);
    const auto cfg = default_config();
    const auto start = std::chrono::steady_clock::now();
    const auto report = engine().run(cfg, executor);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    return static_cast<double>(report.trials) / elapsed.count();
  };
  const double serial = timed(1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const double rate = threads == 1 ? serial : timed(threads);
    std::cout << "  " << threads << " thread(s): " << format_double(rate, 1) << " trials/sec ("
              << format_double(rate / serial, 2) << "x)\n";
  }
  std::cout << "(hardware concurrency here: " << std::thread::hardware_concurrency() << ")\n";
}

/// Campaign throughput at 1/2/4/8 threads, on the wall clock.  One
/// campaign takes 1-3 ms, so the 1 s minimum time averages each reading
/// over hundreds of campaigns whatever --benchmark_min_time the run uses:
/// at 0.05 s the same binary read from -28 % to +36 % of its baseline.
void BM_CampaignTrials(benchmark::State& state) {
  sim::Executor executor(static_cast<std::size_t>(state.range(0)));
  const auto config = default_config();
  for (auto _ : state) {
    auto report = engine().run(config, executor);
    benchmark::DoNotOptimize(report.connectivity.points.back().mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.trials));
  state.counters["threads"] = static_cast<double>(executor.num_threads());
}
BENCHMARK(BM_CampaignTrials)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0)
    ->UseRealTime();

/// The correlated-hazard stressor's throughput; same minimum time as
/// BM_CampaignTrials, for the same reason.
void BM_HazardCampaignTrials(benchmark::State& state) {
  sim::Executor executor(static_cast<std::size_t>(state.range(0)));
  sim::CampaignConfig config;
  config.stressor = sim::Stressor::correlated_hazards(5, 120.0);
  config.trials = 32;
  config.seed = bench::kSeed;
  for (auto _ : state) {
    auto report = engine().run(config, executor);
    benchmark::DoNotOptimize(report.links_hit.points.back().mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.trials));
}
BENCHMARK(BM_HazardCampaignTrials)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0)
    ->UseRealTime();

void BM_SingleTrial(benchmark::State& state) {
  const auto config = default_config();
  std::size_t trial = 0;
  for (auto _ : state) {
    auto result = engine().run_trial(config.stressor, config.seed, trial++);
    benchmark::DoNotOptimize(result.points.back().links_hit);
  }
}
BENCHMARK(BM_SingleTrial)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  intertubes::bench::init(&argc, argv);
  print_artifact();
  return intertubes::bench::run_benchmarks(argc, argv);
}
