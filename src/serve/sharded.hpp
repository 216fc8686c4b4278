// Sharded multi-domain serving: N independent serve domains behind a
// combining front-end, plus the live-update path that RCU-swaps every
// domain's snapshot replica epoch-atomically.
//
// The shape follows the GASNet gemini-conduit multi-domain notes
// (SNIPPETS.md snippet 2): replicate the contended resource — here the
// snapshot pointer, the response cache, the metrics registry, and the
// request scratch pool — once per shard, and spread threads across the
// replicas so shards never touch each other's locks.  Each shard owns a
// SnapshotStore (its replica pointer), a sim::Executor (its workers), and
// a serve::Engine (its cache + metrics + admission bound).  The front-end
// routes by a hash of the request's canonical key, so identical requests
// always land on the same shard and its cache, and merges per-shard
// metrics/histograms into one operator report.
//
// Epoch protocol: publish() and apply() stamp each snapshot exactly once
// through the primary store, then install the *same* pointer into every
// shard's store.  All shards therefore agree on the epoch of every
// snapshot they ever serve (no shard-local stamping), each shard's epoch
// sequence is strictly monotone, and a query in flight during a swap
// keeps its pinned snapshot alive — the same RCU guarantee as the single
// engine, replicated.  The install loop is not a cross-shard barrier: for
// a moment some shards answer at epoch N+1 while others still answer at
// N, which is inherent to RCU (a single engine has the same window
// between publish and a reader's next load).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/delta.hpp"
#include "serve/engine.hpp"

namespace intertubes::serve {

struct ShardedOptions {
  std::size_t shards = 1;
  /// Dedicated worker threads per shard.  0 = no workers: requests
  /// execute inline in submit() on the calling thread (the deterministic
  /// serial baseline, and what the bit-identity oracle drives).
  std::size_t threads_per_shard = 0;
  /// Per-shard engine knobs.  max_pending and the cache capacity are per
  /// shard, so the fleet-wide admission bound is shards * max_pending.
  EngineOptions engine{};
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedOptions options = {});
  ~ShardedEngine() = default;  ///< each shard's engine drains before its executor dies

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Stamp `snapshot` with the next epoch, install it into every shard,
  /// and rebase the live-delta state on it.  Returns the epoch.
  std::uint64_t publish(std::shared_ptr<Snapshot> snapshot);

  /// The live-update path: fold `batch` into the cumulative delta state,
  /// build the next-epoch snapshot *in the calling thread* (off the query
  /// hot path — queries keep streaming against the current epoch), then
  /// swap all shard replicas.  Serialized with publish(); throws
  /// std::invalid_argument on a bad batch (state unchanged) and
  /// std::logic_error before the first publish.  Returns the new epoch.
  std::uint64_t apply(const DeltaBatch& batch);

  std::future<Response> submit(Request request);
  Response serve(Request request) { return submit(std::move(request)).get(); }

  /// The shard a request routes to (stable across calls: a pure function
  /// of the canonical key and the shard count).
  std::size_t shard_of(const Request& request) const;

  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::uint64_t epoch() const noexcept { return primary_.epoch(); }
  std::shared_ptr<const Snapshot> current() const noexcept { return primary_.current(); }
  std::size_t deltas_applied() const;

  const Engine& shard_engine(std::size_t shard) const { return shards_[shard]->engine; }

  // Combining views over the shard fleet.
  std::size_t pending() const;
  CacheStats cache_stats() const;       ///< summed across shards
  std::size_t cache_size() const;
  void clear_cache();
  std::size_t purge_stale_cache();      ///< per-shard purge against the shared epoch
  std::uint64_t total_served() const;
  std::uint64_t total_shed() const;
  /// Fold every shard's registry into `out` (histograms merge, counters
  /// sum) — the merged fleet view a caller can take percentiles from.
  void merge_metrics_into(MetricsRegistry& out) const;
  RequestTypeMetrics merged_metrics_of(RequestType type) const;
  /// Operator report over the merged registries + summed cache stats.
  std::string render_metrics() const;

 private:
  struct Shard {
    SnapshotStore store;
    sim::Executor executor;
    Engine engine;
    explicit Shard(const ShardedOptions& options);
  };

  ShardedOptions options_;
  SnapshotStore primary_;  ///< the epoch authority; stamps every snapshot once
  mutable std::mutex publish_mu_;
  std::unique_ptr<LiveMap> live_;  ///< guarded by publish_mu_
  std::size_t deltas_applied_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace intertubes::serve
