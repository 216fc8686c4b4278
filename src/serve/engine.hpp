// The concurrent query engine: a typed request/response API over the
// current Snapshot, dispatched onto the sim/ executor thread pool.
//
// Request lifecycle:
//   submit() — admission control: if (queued + executing) requests have
//     reached EngineOptions::max_pending, the request is *shed* with an
//     immediate Overloaded response instead of queueing unboundedly;
//     otherwise it is posted to the executor and a future returned.
//   worker — loads the current snapshot (one wait-free atomic read, held
//     for the whole request so a concurrent publish cannot pull artifacts
//     out from under it), consults the memoization cache keyed by
//     (snapshot epoch, canonical request), computes on miss, records
//     latency (queue wait included) into the metrics registry.
//
// Every response carries the epoch it was computed against, so callers
// can detect cross-epoch reads in a stream of requests.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "dissect/dissector.hpp"
#include "serve/cache.hpp"
#include "serve/fastpath.hpp"
#include "serve/metrics.hpp"
#include "serve/snapshot.hpp"
#include "sim/executor.hpp"
#include "util/alloc.hpp"

namespace intertubes::serve {

// --- Requests ---------------------------------------------------------

/// Per-ISP shared-risk row (the Fig. 6 ranking entry for one ISP).
struct SharedRiskQuery {
  std::string isp;
};

/// The k most-shared conduits with tenancy and endpoints (Tables 2/3 shape).
/// Degenerate k is well-defined: k == 0 answers an empty table, k larger
/// than the conduit count answers the whole ranking — both Ok, both
/// deterministic.
struct TopConduitsQuery {
  std::size_t k = 10;
};

/// What-if: sever these conduits of the current map and report the blast
/// radius (service impact + connectivity delta).
struct WhatIfCutQuery {
  std::vector<core::ConduitId> cuts;
};

/// Shortest conduit path between two cities with fiber propagation delay.
struct CityPathQuery {
  std::string from;
  std::string to;
};

/// The k ISPs with the most similar risk profile (smallest Hamming
/// distance between risk-matrix usage rows, Fig. 8).  Same degenerate-k
/// contract as TopConduitsQuery: k == 0 → empty, k > |ISPs| - 1 → all.
struct HammingNeighborsQuery {
  std::string isp;
  std::size_t k = 5;
};

/// Speed-of-light decomposition for one city pair: how far its best fiber
/// path sits above c-latency, split into refraction / ROW inflation /
/// fiber-detour components (dissect::LatencyDissector on the snapshot's
/// conduit graph).
struct LatencyDissectionQuery {
  std::string from;
  std::string to;
};

/// The all-pairs speed-of-light audit: stretch aggregates plus the top-k
/// pairs by achievable improvement.  The full sweep runs once per
/// snapshot epoch and is memoized; repeats are cache hits.
struct CLatencyAuditQuery {
  std::size_t top_k = 10;
  double target_factor = 2.0;
};

/// What-if with dynamics: sever these conduits and run the capacity-aware
/// overload cascade (cascade::CascadeEngine on the snapshot's shared
/// conduit graph) to its fixed point, reporting cross-layer damage.
struct WhatIfCascadeQuery {
  std::vector<core::ConduitId> cuts;
  double capacity_margin = 0.25;
  std::size_t max_rounds = 8;
};

/// Occupy a serve slot for `ms` milliseconds.  A load-testing aid (and the
/// lever the admission-control tests use); never cached.
struct SleepQuery {
  double ms = 1.0;
};

/// Alternative order must match serve::RequestType.
using Request = std::variant<SharedRiskQuery, TopConduitsQuery, WhatIfCutQuery, CityPathQuery,
                             HammingNeighborsQuery, LatencyDissectionQuery, CLatencyAuditQuery,
                             WhatIfCascadeQuery, SleepQuery>;

RequestType request_type(const Request& request) noexcept;

/// Canonical cache-key form: identical semantics ⇒ identical string
/// (what-if cut lists are sorted and deduplicated, etc.).  Doubles are
/// written in shortest round-trip form, so distinct values never share a
/// key.
std::string canonical_key(const Request& request);

// --- Responses --------------------------------------------------------

struct SharedRiskResult {
  std::string isp;
  std::size_t conduits_used = 0;
  double mean_sharing = 0.0;
  double standard_error = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
};

struct TopConduitRow {
  core::ConduitId conduit = core::kNoConduit;
  std::string a;
  std::string b;
  std::size_t tenants = 0;
  bool validated = false;
};

struct TopConduitsResult {
  std::vector<TopConduitRow> rows;
};

struct WhatIfCutResult {
  std::size_t conduits_cut = 0;
  std::size_t links_severed = 0;  ///< links traversing >= 1 cut conduit
  std::size_t isps_hit = 0;       ///< distinct ISPs with >= 1 severed link
  double connected_fraction_before = 0.0;  ///< node pairs connected, uncut map
  double connected_fraction_after = 0.0;
  std::size_t components_after = 0;
};

struct PathHop {
  std::string a;
  std::string b;
  double km = 0.0;
};

struct CityPathResult {
  bool reachable = false;
  std::vector<PathHop> hops;
  double km = 0.0;
  double delay_ms = 0.0;  ///< one-way fiber propagation
};

struct HammingNeighbor {
  std::string isp;
  std::size_t distance = 0;
};

struct HammingNeighborsResult {
  std::string isp;
  std::vector<HammingNeighbor> neighbors;
};

struct LatencyDissectionResult {
  std::string from;
  std::string to;
  dissect::PairDissection dissection;
};

/// One audit table row, already resolved to display names.
struct AuditPairRow {
  std::string a;
  std::string b;
  double clat_ms = 0.0;
  double achievable_ms = 0.0;
  double stretch = 0.0;
};

struct CLatencyAuditResult {
  std::size_t cities = 0;
  std::size_t pairs = 0;
  std::size_t fiber_unreachable = 0;
  double median_stretch = 0.0;
  double p95_stretch = 0.0;
  std::size_t within_target = 0;
  double total_achievable_ms = 0.0;
  std::vector<AuditPairRow> top;  ///< ranked by achievable improvement
};

/// The cascade's fixed point, summarized.  `rounds` counts overload waves
/// after the initial cut (0 = the cut alone never overloaded anything).
struct WhatIfCascadeResult {
  std::size_t conduits_cut = 0;
  std::size_t rounds = 0;
  bool converged = true;  ///< false if stopped at max_rounds still overloading
  std::vector<core::ConduitId> overload_failures;  ///< failed by load, ascending
  std::size_t conduits_dead = 0;  ///< cut + overload-failed at the fixed point
  double giant_component = 1.0;
  double l3_edges_dead = 0.0;
  double l3_reachability = 1.0;
  double demand_delivered = 1.0;
  double mean_stretch = 1.0;  ///< +inf when nothing is deliverable
  std::size_t links_undeliverable = 0;
  std::size_t isps_hit = 0;  ///< distinct ISPs with >= 1 undeliverable link
};

struct SleepResult {};

using ResponseBody = std::variant<SharedRiskResult, TopConduitsResult, WhatIfCutResult,
                                  CityPathResult, HammingNeighborsResult, LatencyDissectionResult,
                                  CLatencyAuditResult, WhatIfCascadeResult, SleepResult>;

enum class Status : std::uint8_t {
  Ok,
  Overloaded,  ///< shed at admission; request was never executed
  NotFound,    ///< unknown ISP / city name
  BadRequest,  ///< malformed parameters (conduit id out of range, empty cut set)
  NoSnapshot,  ///< nothing published yet
  Error,       ///< unexpected exception during execution
};

const char* status_name(Status status) noexcept;

struct Response {
  Status status = Status::Ok;
  std::string error;          ///< populated for non-Ok statuses
  std::uint64_t epoch = 0;    ///< snapshot the response was computed against
  bool cache_hit = false;
  double latency_us = 0.0;    ///< submit → completion, queue wait included
  ResponseBody body;
};

// --- Engine -----------------------------------------------------------

struct EngineOptions {
  /// Admission bound: requests queued or executing before shedding.
  std::size_t max_pending = 256;
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 8;
};

class Engine {
 public:
  /// The store and executor must outlive the engine.  A serial executor
  /// (no workers) degrades gracefully: requests execute inline in
  /// submit() and the future is ready on return.
  Engine(SnapshotStore& store, sim::Executor& executor, EngineOptions options = {});
  ~Engine();  ///< blocks until every in-flight request completed

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  std::future<Response> submit(Request request);

  /// Synchronous convenience: submit and wait.
  Response serve(Request request) { return submit(std::move(request)).get(); }

  /// Requests admitted but not yet completed.
  std::size_t pending() const noexcept { return pending_.load(std::memory_order_relaxed); }

  const MetricsRegistry& metrics() const noexcept { return metrics_; }
  CacheStats cache_stats() const { return cache_.stats(); }
  std::size_t cache_size() const { return cache_.size(); }
  void clear_cache() { cache_.clear(); }
  /// Drop cache entries from epochs other than the current one.
  std::size_t purge_stale_cache() { return cache_.purge_stale(store_.epoch()); }

  /// Operator report: latency table + cache summary.
  std::string render_metrics() const { return metrics_.render(cache_.stats()); }

  /// Scratch-pool observability (capped-growth regression tests).
  std::size_t scratch_pool_idle() const { return scratch_pool_.idle(); }
  std::size_t scratch_pool_cap() const noexcept { return scratch_pool_.cap(); }
  std::size_t scratch_created() const noexcept { return scratch_pool_.created(); }
  std::size_t scratch_dropped() const noexcept { return scratch_pool_.dropped(); }

 private:
  void execute(const Snapshot& snapshot, const Request& request, Response& response) const;
  Response run(Request request, std::chrono::steady_clock::time_point admitted);
  void finish();

  SnapshotStore& store_;
  sim::Executor& executor_;
  EngineOptions options_;
  ShardedLruCache<std::shared_ptr<const Response>> cache_;
  /// Reusable per-request kernel scratch (fastpath::RequestScratch),
  /// leased per request by execute().  Capped: a concurrency burst can
  /// never pin more than cap() idle scratch objects.
  util::LeasePool<fastpath::RequestScratch> scratch_pool_;
  MetricsRegistry metrics_;
  std::atomic<std::size_t> pending_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
};

}  // namespace intertubes::serve
