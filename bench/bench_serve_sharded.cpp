// Sharded serving — closed-loop load generation against serve::ShardedEngine.
//
// Prints the sharded-serving artifact: requests/sec for the mixed warm
// workload at 1/2/4/8 shards (one worker per shard, clients = shards),
// with the fleet-wide p99 read from the merged per-shard histograms, then
// the same sweep with a churn thread live-applying cut/repair delta
// batches (the RCU swap path under load).  The scaling headline is only
// meaningful on a machine with cores to spread across — the artifact
// prints the hardware concurrency it ran on.  Then google-benchmark
// timings (BM_ShardedWarm/N, BM_ShardedDeltaApply) for JSON extraction
// via --bench_json=<path>.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "serve/sharded.hpp"
#include "util/table.hpp"

namespace {

using namespace intertubes;

const std::shared_ptr<serve::Snapshot>& base_snapshot() {
  static const std::shared_ptr<serve::Snapshot> snap =
      serve::Snapshot::build(bench::world(), {0, "bench"});
  return snap;
}

/// Fresh snapshot of the same world (publish stamps epochs in place, so
/// each fleet gets its own object to stamp).
std::shared_ptr<serve::Snapshot> fresh_snapshot() {
  return serve::Snapshot::build(bench::world(), {0, "bench"});
}

/// The mixed workload, spread wide enough that hash routing populates
/// every shard's cache.
std::vector<serve::Request> script() {
  const auto targets = base_snapshot()->matrix().most_shared_conduits(4);
  std::vector<serve::Request> out = {
      serve::SharedRiskQuery{"Sprint"},
      serve::SharedRiskQuery{"AT&T"},
      serve::SharedRiskQuery{"Level 3"},
      serve::TopConduitsQuery{10},
      serve::TopConduitsQuery{5},
      serve::CityPathQuery{"San Francisco, CA", "New York, NY"},
      serve::CityPathQuery{"Seattle, WA", "Miami, FL"},
      serve::CityPathQuery{"Denver, CO", "Chicago, IL"},
      serve::HammingNeighborsQuery{"Sprint", 5},
      serve::HammingNeighborsQuery{"AT&T", 3},
  };
  for (const auto target : targets) {
    out.emplace_back(serve::WhatIfCutQuery{{target}});
  }
  return out;
}

/// One cut-or-repair delta batch over the most-shared conduit's corridor.
serve::DeltaBatch churn_batch(std::size_t index) {
  const auto& base = *base_snapshot();
  const auto targets = base.matrix().most_shared_conduits(1);
  serve::DeltaBatch batch;
  const transport::CorridorId corridor = base.map().conduit(targets[0]).corridor;
  if (index % 2 == 0) {
    batch.cut = {corridor};
  } else {
    batch.repair = {corridor};
  }
  batch.label = "bench churn";
  return batch;
}

/// Closed loop: `clients` threads issue `total` requests as fast as the
/// fleet answers them.  Returns requests/sec.
double drive(serve::ShardedEngine& fleet, std::size_t clients, std::size_t total) {
  const auto requests = script();
  std::atomic<std::size_t> next{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        const auto response = fleet.serve(requests[i % requests.size()]);
        if (response.status != serve::Status::Ok &&
            response.status != serve::Status::Overloaded) {
          std::abort();  // bench invariant
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(total) / elapsed.count();
}

/// Fleet-wide p99 over the merged per-shard histograms — the number the
/// combining front-end exists to answer.
double merged_p99_us(const serve::ShardedEngine& fleet) {
  double worst = 0.0;
  for (const serve::RequestType type :
       {serve::RequestType::SharedRisk, serve::RequestType::TopConduits,
        serve::RequestType::WhatIfCut, serve::RequestType::CityPath,
        serve::RequestType::HammingNeighbors}) {
    const auto merged = fleet.merged_metrics_of(type);
    if (merged.count > 0) worst = std::max(worst, merged.p99_us);
  }
  return worst;
}

void print_artifact() {
  bench::artifact_banner(
      "Sharded serving",
      "closed-loop warm throughput vs shard count, steady and under delta churn");

  TextTable table({"shards", "steady req/s", "steady p99 us", "churn req/s", "churn p99 us"});
  double qps_at_1 = 0.0;
  double qps_at_best = 0.0;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    double steady_qps, steady_p99, churn_qps, churn_p99;
    {
      serve::ShardedEngine fleet({.shards = shards, .threads_per_shard = 1});
      fleet.publish(fresh_snapshot());
      drive(fleet, shards, 2 * script().size());  // prime every shard cache
      steady_qps = drive(fleet, shards, 6000);
      steady_p99 = merged_p99_us(fleet);
    }
    {
      serve::ShardedEngine fleet({.shards = shards, .threads_per_shard = 1});
      fleet.publish(fresh_snapshot());
      drive(fleet, shards, 2 * script().size());
      std::atomic<bool> done{false};
      std::thread churner([&] {
        std::size_t batch = 0;
        while (!done.load()) {
          fleet.apply(churn_batch(batch++));
          fleet.purge_stale_cache();
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      });
      churn_qps = drive(fleet, shards, 6000);
      done.store(true);
      churner.join();
      churn_p99 = merged_p99_us(fleet);
    }
    table.start_row();
    table.add_cell(shards);
    table.add_cell(steady_qps, 0);
    table.add_cell(steady_p99, 0);
    table.add_cell(churn_qps, 0);
    table.add_cell(churn_p99, 0);
    if (shards == 1) qps_at_1 = steady_qps;
    qps_at_best = std::max(qps_at_best, steady_qps);
  }
  std::cout << table.render("sharded serve throughput (warm mixed workload)") << "\n"
            << "best steady scaling vs 1 shard: " << format_double(qps_at_best / qps_at_1, 2)
            << "x (acceptance target: >= 3x at 8 shards, needs >= 8 cores)\n"
            << "hardware concurrency here: " << std::thread::hardware_concurrency() << "\n";
}

void BM_ShardedWarm(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  serve::ShardedEngine fleet({.shards = shards, .threads_per_shard = 1});
  fleet.publish(fresh_snapshot());
  const auto requests = script();
  for (const auto& request : requests) fleet.serve(request);  // prime
  std::size_t i = 0;
  for (auto _ : state) {
    auto response = fleet.serve(requests[i++ % requests.size()]);
    benchmark::DoNotOptimize(response.cache_hit);
  }
  state.counters["p99_us"] = merged_p99_us(fleet);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedWarm)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

/// The live-update path end to end: fold a delta batch, derive the next
/// epoch, swap every shard's replica.  This is the publish-side cost a
/// churn thread pays per batch (queries never pay it).
void BM_ShardedDeltaApply(benchmark::State& state) {
  serve::ShardedEngine fleet({.shards = 4, .threads_per_shard = 1});
  fleet.publish(fresh_snapshot());
  std::size_t batch = 0;
  for (auto _ : state) {
    fleet.apply(churn_batch(batch++));
    benchmark::DoNotOptimize(fleet.epoch());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedDeltaApply)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  intertubes::bench::init(&argc, argv);
  print_artifact();
  return intertubes::bench::run_benchmarks(argc, argv);
}
