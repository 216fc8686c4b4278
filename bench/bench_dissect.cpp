// Benchmarks for the dissect/ all-pairs latency workload.
//
// The headline comparison is BM_AllPairsPerPair (the old shape: one cold
// point-to-point Dijkstra per city pair) against BM_AllPairsBatched (one
// distance row per source via PathEngine::distance_rows).  Acceptance
// bar for the batched layer: >= 5x faster than per-pair at the paper's
// 273-node world, bit-identical at any thread count (the bit-identity is
// proven by tests/prop/prop_dissect_test.cpp; this harness proves the
// speed).
//
// Also times the full dissection sweep (rows + decomposition), the
// single-pair point query the serve/ LatencyDissection request pays on a
// cache miss, and one greedy gap-closing pass.
//
// The two tracked fan-out benchmarks (BM_AllPairsBatched,
// BM_DissectionSweep) time on the wall clock (UseRealTime): their
// pairs_per_second is work over real time, not over the CPU time of a
// main thread that mostly waits on the executor.  Each runs for at least
// 1 s, so two runs of one binary agree closely enough for the gate.
//
// Extra flag: `--trials=small` shrinks benchmark min-time for CI smoke
// runs (rewritten to --benchmark_min_time=0.01 before native parsing).
#include <cstring>
#include <memory>

#include "artifact/renderers.hpp"
#include "bench_support.hpp"
#include "dissect/dissector.hpp"
#include "dissect/gap_optimizer.hpp"
#include "sim/executor.hpp"

namespace {

using namespace intertubes;

const dissect::LatencyDissector& dissector() {
  static const dissect::LatencyDissector d(bench::map(), bench::cities(),
                                           bench::row());
  return d;
}

/// The conduit engine the per-pair baseline queries (same graph the
/// dissector compiles; built once so both shapes pay identical setup).
const route::PathEngine& fiber_engine() {
  static const route::PathEngine e = [] {
    const auto& map = bench::map();
    std::vector<route::EdgeSpec> edges;
    edges.reserve(map.conduits().size());
    for (const auto& c : map.conduits()) edges.push_back({c.a, c.b, c.length_km});
    return route::PathEngine(static_cast<route::NodeId>(bench::cities().size()),
                             std::move(edges));
  }();
  return e;
}

/// The old all-pairs shape: one cold point-to-point Dijkstra per pair.
void BM_AllPairsPerPair(benchmark::State& state) {
  const auto& nodes = dissector().nodes();
  const auto& engine = fiber_engine();
  route::PathEngine::Workspace ws;
  for (auto _ : state) {
    double checksum = 0.0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        const auto path = engine.shortest_path(nodes[i], nodes[j], {}, ws);
        if (path.reachable) checksum += path.cost;
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  const double pairs = 0.5 * static_cast<double>(nodes.size()) *
                       static_cast<double>(nodes.size() - 1);
  state.counters["pairs_per_second"] =
      benchmark::Counter(pairs, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_AllPairsPerPair)->Unit(benchmark::kMillisecond);

/// The batched shape: one distance row per source.  Thread count 0 is the
/// serial path (no executor); higher counts fan the sources out.
void BM_AllPairsBatched(benchmark::State& state) {
  const auto& nodes = dissector().nodes();
  const auto& engine = fiber_engine();
  const std::vector<route::NodeId> sources(nodes.begin(), nodes.end());
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<sim::Executor> executor;
  if (threads > 0) executor = std::make_unique<sim::Executor>(threads);
  for (auto _ : state) {
    const auto rows = engine.distance_rows(sources, {}, executor.get());
    benchmark::DoNotOptimize(rows.cells.data());
  }
  const double pairs = 0.5 * static_cast<double>(nodes.size()) *
                       static_cast<double>(nodes.size() - 1);
  state.counters["pairs_per_second"] =
      benchmark::Counter(pairs, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_AllPairsBatched)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0)
    ->UseRealTime();

/// The full dissection study: one pass per source computes its fiber and
/// ROW rows and decomposes its pairs.
void BM_DissectionSweep(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<sim::Executor> executor;
  if (threads > 0) executor = std::make_unique<sim::Executor>(threads);
  for (auto _ : state) {
    const auto study = dissector().dissect(executor.get());
    benchmark::DoNotOptimize(study.median_stretch);
  }
  const double pairs = 0.5 * static_cast<double>(dissector().nodes().size()) *
                       static_cast<double>(dissector().nodes().size() - 1);
  state.counters["pairs_per_second"] =
      benchmark::Counter(pairs, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DissectionSweep)
    ->Arg(0)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0)
    ->UseRealTime();

/// The point query a serve/ LatencyDissection request pays on cache miss.
void BM_DissectPair(benchmark::State& state) {
  const auto& nodes = dissector().nodes();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto pair = dissector().dissect_pair(nodes[i % nodes.size()],
                                               nodes[(i + nodes.size() / 2) % nodes.size()]);
    benchmark::DoNotOptimize(pair.fiber_ms);
    ++i;
  }
}
BENCHMARK(BM_DissectPair)->Unit(benchmark::kMicrosecond);

/// One full greedy gap-closing pass (k new conduits, exact candidate
/// scoring over the unlit-corridor inventory).
void BM_GapClosing(benchmark::State& state) {
  sim::Executor executor(4);
  dissect::GapClosingParams params;
  params.max_k = 3;
  for (auto _ : state) {
    const auto result = dissect::close_gaps(bench::map(), bench::cities(),
                                            bench::row(), params, &executor);
    benchmark::DoNotOptimize(result.excess_ms_after);
  }
}
BENCHMARK(BM_GapClosing)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  intertubes::bench::init(&argc, argv);
  bench::artifact_banner("DISSECT", "all-pairs speed-of-light audit (batched vs per-pair)");
  sim::Executor executor(4);
  const auto study = dissector().dissect(&executor);
  std::cout << artifact::render_clatency_audit(study, bench::cities(), 10);

  // --trials=small rewrites to a short min-time for CI smoke runs.
  std::vector<char*> args(argv, argv + argc);
  static char small[] = "--benchmark_min_time=0.01";
  for (auto& arg : args) {
    if (std::strcmp(arg, "--trials=small") == 0) arg = small;
  }
  int n = static_cast<int>(args.size());
  return bench::run_benchmarks(n, args.data());
}
