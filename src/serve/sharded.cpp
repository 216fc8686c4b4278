#include "serve/sharded.hpp"

#include <functional>
#include <stdexcept>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace intertubes::serve {

// Executor counts the calling thread, so +1 buys `threads_per_shard`
// dedicated workers; 0 workers degrades to the inline serial engine.
ShardedEngine::Shard::Shard(const ShardedOptions& options)
    : executor(options.threads_per_shard + 1), engine(store, executor, options.engine) {}

ShardedEngine::ShardedEngine(ShardedOptions options) : options_(options) {
  IT_CHECK(options.shards > 0);
  shards_.reserve(options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options));
  }
}

std::uint64_t ShardedEngine::publish(std::shared_ptr<Snapshot> snapshot) {
  IT_CHECK(snapshot != nullptr);
  std::lock_guard<std::mutex> lock(publish_mu_);
  const std::uint64_t epoch = primary_.publish(snapshot);  // stamps exactly once
  const std::shared_ptr<const Snapshot> replica = std::move(snapshot);
  for (auto& shard : shards_) shard->store.install(replica);
  live_ = std::make_unique<LiveMap>(replica);
  return epoch;
}

std::uint64_t ShardedEngine::apply(const DeltaBatch& batch) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  if (!live_) throw std::logic_error("ShardedEngine::apply before first publish");
  // The expensive part — fold + full derive of the next epoch — runs
  // right here in the churn thread, while every shard keeps serving the
  // current epoch untouched.
  std::shared_ptr<Snapshot> next = live_->apply(batch);
  const std::uint64_t epoch = primary_.publish(next);
  const std::shared_ptr<const Snapshot> replica = std::move(next);
  for (auto& shard : shards_) shard->store.install(replica);
  ++deltas_applied_;
  return epoch;
}

std::size_t ShardedEngine::deltas_applied() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return deltas_applied_;
}

std::size_t ShardedEngine::shard_of(const Request& request) const {
  // mix64 on top of std::hash so a weak string hash still spreads over
  // small shard counts.
  return mix64(std::hash<std::string>{}(canonical_key(request))) % shards_.size();
}

std::future<Response> ShardedEngine::submit(Request request) {
  const std::size_t shard = shard_of(request);
  return shards_[shard]->engine.submit(std::move(request));
}

std::size_t ShardedEngine::pending() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->engine.pending();
  return total;
}

CacheStats ShardedEngine::cache_stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    const CacheStats s = shard->engine.cache_stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.invalidations += s.invalidations;
  }
  return total;
}

std::size_t ShardedEngine::cache_size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->engine.cache_size();
  return total;
}

void ShardedEngine::clear_cache() {
  for (auto& shard : shards_) shard->engine.clear_cache();
}

std::size_t ShardedEngine::purge_stale_cache() {
  std::size_t total = 0;
  for (auto& shard : shards_) total += shard->engine.purge_stale_cache();
  return total;
}

std::uint64_t ShardedEngine::total_served() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->engine.metrics().total_served();
  return total;
}

std::uint64_t ShardedEngine::total_shed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->engine.metrics().total_shed();
  return total;
}

void ShardedEngine::merge_metrics_into(MetricsRegistry& out) const {
  for (const auto& shard : shards_) out.merge_from(shard->engine.metrics());
}

RequestTypeMetrics ShardedEngine::merged_metrics_of(RequestType type) const {
  MetricsRegistry merged;
  merge_metrics_into(merged);
  return merged.snapshot_of(type);
}

std::string ShardedEngine::render_metrics() const {
  MetricsRegistry merged;
  merge_metrics_into(merged);
  return merged.render(cache_stats());
}

}  // namespace intertubes::serve
