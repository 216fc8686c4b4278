// Microbenchmarks for the shared routing core (src/route/): cold Dijkstra
// on the compiled CSR graph, the zero-allocation steady state, the
// deterministic parallel fan-out at 1/2/4/8 threads, and the Fig-10
// planner end to end.
//
// Not a paper figure — this is the perf harness for the engine every
// mitigation analysis (Fig 10/11, Table 5, §5.3) now runs on.
//
// Extra flag: `--trials=small` shrinks benchmark min-time for CI smoke
// runs (it rewrites to --benchmark_min_time=0.01 before the native flags
// are parsed).
#include <algorithm>
#include <cstring>

#include "bench_support.hpp"
#include "optimize/robustness.hpp"
#include "route/path_engine.hpp"
#include "sim/executor.hpp"
#include "util/alloc.hpp"

namespace {

using namespace intertubes;

/// The conduit graph under min-shared-risk weights — the same compilation
/// RobustnessPlanner performs.
const route::PathEngine& engine() {
  static const route::PathEngine e = [] {
    const auto& map = bench::map();
    const auto& matrix = bench::risk_matrix();
    route::NodeId num_nodes = 0;
    std::vector<route::EdgeSpec> edges;
    edges.reserve(map.conduits().size());
    for (const auto& c : map.conduits()) {
      num_nodes = std::max(num_nodes, std::max(c.a, c.b) + 1);
      edges.push_back({c.a, c.b,
                       static_cast<double>(matrix.sharing_count(c.id)) + 1e-4 * c.length_km});
    }
    return route::PathEngine(num_nodes, std::move(edges));
  }();
  return e;
}

void BM_ColdRerouteQuery(benchmark::State& state) {
  const auto& map = bench::map();
  route::PathEngine::Workspace ws;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& conduit = map.conduits()[i % map.conduits().size()];
    const std::vector<route::EdgeId> mask{conduit.id};
    route::Query query;
    query.masked = &mask;
    const auto path = engine().shortest_path(conduit.a, conduit.b, query, ws);
    benchmark::DoNotOptimize(path.cost);
    ++i;
  }
}
BENCHMARK(BM_ColdRerouteQuery)->Unit(benchmark::kMicrosecond);

/// The zero-allocation steady state: warmed workspace, reused mask and
/// Path output buffers, reroute via the into-caller-buffer overload.
/// allocs_per_query is the tracked counter — 0 is the DESIGN.md §14
/// guarantee (requires util/alloc_hooks.cpp linked into this binary).
void BM_SteadyStateReroute(benchmark::State& state) {
  const auto& map = bench::map();
  route::PathEngine::Workspace ws;
  engine().warm_workspace(ws);
  route::Path out;
  // Warm the output buffers to the graph bound (a path visits each node
  // at most once), so no query in the loop ever grows them.
  out.edges.reserve(engine().num_nodes());
  out.nodes.reserve(engine().num_nodes());
  std::vector<route::EdgeId> mask(1, 0);
  route::Query query;
  query.masked = &mask;
  std::size_t i = 0;
  // Per-iteration deltas: counts only the query itself, not the harness's
  // own between-iteration bookkeeping.
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const auto& conduit = map.conduits()[i % map.conduits().size()];
    mask[0] = conduit.id;
    const std::uint64_t before = util::thread_alloc_counts().allocs;
    engine().shortest_path(conduit.a, conduit.b, query, ws, out);
    allocs += util::thread_alloc_counts().allocs - before;
    benchmark::DoNotOptimize(out.cost);
    ++i;
  }
  const double iterations = static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
  state.counters["allocs_per_query"] = static_cast<double>(allocs) / iterations;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SteadyStateReroute)->Unit(benchmark::kMicrosecond);

/// The Fig-10 fan-out shape: one reroute per conduit, parallelized over
/// the executor with ordered reduction (every query is a cold Dijkstra,
/// so the timing measures the engine + executor).
void BM_RerouteFanout(benchmark::State& state) {
  const auto& map = bench::map();
  sim::Executor executor(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto costs = executor.parallel_map<double>(
        map.conduits().size(), [&](std::size_t i) {
          const auto& conduit = map.conduits()[i];
          const std::vector<route::EdgeId> mask{conduit.id};
          route::Query query;
          query.masked = &mask;
          return engine().shortest_path(conduit.a, conduit.b, query).cost;
        });
    benchmark::DoNotOptimize(costs.size());
  }
}
BENCHMARK(BM_RerouteFanout)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// End-to-end Fig-10 workload on the shared planner: summary + network
/// wide gain, one masked search per target each reads.
void BM_RobustnessPlannerEndToEnd(benchmark::State& state) {
  const auto targets = bench::risk_matrix().most_shared_conduits(12);
  for (auto _ : state) {
    optimize::RobustnessPlanner planner(bench::map(), bench::risk_matrix());
    const auto summaries = planner.summarize_robustness(targets);
    const auto gain = planner.network_wide_gain(12);
    benchmark::DoNotOptimize(summaries.size());
    benchmark::DoNotOptimize(gain.already_optimal);
  }
}
BENCHMARK(BM_RobustnessPlannerEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  intertubes::bench::init(&argc, argv);
  // Translate --trials=small into a short google-benchmark min time.
  std::vector<char*> args(argv, argv + argc);
  static char small_flag[] = "--benchmark_min_time=0.01";
  for (auto& arg : args) {
    if (std::strcmp(arg, "--trials=small") == 0) arg = small_flag;
  }
  int rewritten_argc = static_cast<int>(args.size());
  return intertubes::bench::run_benchmarks(rewritten_argc, args.data());
}
