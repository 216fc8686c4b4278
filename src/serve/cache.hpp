// Sharded LRU memoization cache for derived query artifacts.
//
// Keys are (snapshot epoch, canonical request string): a snapshot swap
// bumps the epoch, so every entry computed against the old world misses
// naturally — no locking or coordination with readers is needed to
// invalidate, and purge_stale() reclaims the dead entries' memory when
// convenient.  The key space is split across independently locked shards
// so concurrent serve threads rarely contend on the same mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace intertubes::serve {

struct CacheKey {
  std::uint64_t epoch = 0;
  std::string request;  ///< canonical form, see serve::canonical_key

  bool operator==(const CacheKey& other) const noexcept {
    return epoch == other.epoch && request == other.request;
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept {
    // Scrambled epoch folded into the string hash.
    return std::hash<std::string>{}(key.request) ^ static_cast<std::size_t>(mix64(key.epoch));
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;    ///< capacity evictions (LRU tail drops)
  std::uint64_t invalidations = 0;  ///< stale-epoch entries purged

  double hit_ratio() const noexcept {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

template <typename V>
class ShardedLruCache {
 public:
  /// `capacity` entries total, split evenly across `shards` independently
  /// locked shards (each rounds up, so the effective total can exceed
  /// `capacity` by up to shards-1).
  explicit ShardedLruCache(std::size_t capacity = 4096, std::size_t num_shards = 8)
      : per_shard_capacity_(checked_per_shard(capacity, num_shards)), shards_(num_shards) {}

  /// Look up and touch (move to most-recently-used).  Counts a hit/miss.
  std::optional<V> get(const CacheKey& key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
  }

  /// Insert or refresh; evicts the shard's LRU tail when over capacity.
  void put(const CacheKey& key, V value) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.lru.begin());
    if (shard.lru.size() > per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Drop every entry whose epoch differs from `current_epoch` (wholesale
  /// invalidation after a snapshot swap).  Returns entries dropped.
  std::size_t purge_stale(std::uint64_t current_epoch) {
    std::size_t dropped = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (it->first.epoch != current_epoch) {
          shard.index.erase(it->first);
          it = shard.lru.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
    }
    invalidations_.fetch_add(dropped, std::memory_order_relaxed);
    return dropped;
  }

  /// Drop everything (bench cold-start phases).  Not counted as
  /// invalidations.
  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.lru.clear();
      shard.index.clear();
    }
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.lru.size();
    }
    return total;
  }

  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t shard_capacity() const noexcept { return per_shard_capacity_; }

  CacheStats stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.invalidations = invalidations_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::list<std::pair<CacheKey, V>> lru;  // front = most recent
    std::unordered_map<CacheKey, typename std::list<std::pair<CacheKey, V>>::iterator,
                       CacheKeyHash>
        index;
  };

  static std::size_t checked_per_shard(std::size_t capacity, std::size_t num_shards) {
    IT_CHECK(capacity > 0);
    IT_CHECK(num_shards > 0);
    return (capacity + num_shards - 1) / num_shards;
  }

  Shard& shard_for(const CacheKey& key) {
    return shards_[CacheKeyHash{}(key) % shards_.size()];
  }

  std::size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace intertubes::serve
