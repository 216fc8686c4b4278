// Workload `serve-live`: a 1x generated world published into a two-shard
// serve::ShardedEngine whose clients run requests inline
// (threads_per_shard = 0).  Two closed-loop client threads replay the
// seeded script (script.hpp): Zipf point reads, what-if cuts, latency
// dissections and a few percent of what-if cascades; client 0 also applies
// a delta batch through ShardedEngine::apply, then purges stale cache
// entries, every fixed number of its requests.
//
// kWorldSeed drives the generated world, the seed the script.
// Set-up: generate the world, build the base snapshot, start a fleet and
// publish.  It is repeated before every pass, and the pass runs on the last
// fixture.  A pass replays the script once; passes repeat until the time
// budget is spent.  The benchmark keeps no snapshot during a pass, so the
// fleet alone reclaims old epochs.  After each pass, outside the measured
// time, a LiveMap over the base snapshot replays the pass's delta batches
// to rebuild every epoch, and every response's status and body is compared
// with an inline recomputation on the rebuilt snapshot of the epoch it
// reports.
//
// The traced run replays a seeded sample of the script through
// canonical_key, the fastpath kernels on the same snapshot, an inline
// engine and a one-worker fleet, and a prefix of the delta script through
// LiveMap::apply, Snapshot::with_map and SnapshotStore install.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/dataset_io.hpp"
#include "isp/profiles.hpp"
#include "script.hpp"
#include "serve/fastpath.hpp"
#include "serve/sharded.hpp"
#include "sim/executor.hpp"
#include "trace.hpp"
#include "worldgen/worldgen.hpp"

namespace perfbench {

namespace {

using namespace intertubes;

/// A set-up takes ~50 ms, and the VM's speed shifts within a second, so a
/// run repeats it before every pass and reports the median.
constexpr int kSetupsPerPass = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kShards = 2;
constexpr std::size_t kPerClient = 10000;  ///< requests per client per pass
constexpr std::size_t kDeltaEvery = 500;   ///< client-0 requests per delta batch
constexpr std::size_t kTraceSample = 3000;
constexpr std::size_t kTraceDeltas = 16;

// --- response digests (status and body; never latency or cache_hit) ---

void body(Digest& d, const serve::SharedRiskResult& r) {
  d.str(r.isp);
  d.u64(r.conduits_used);
  for (double v : {r.mean_sharing, r.standard_error, r.p25, r.p75}) d.f64(v);
}
void body(Digest& d, const serve::TopConduitsResult& r) {
  for (const auto& row : r.rows) {
    d.u64(row.conduit);
    d.str(row.a);
    d.str(row.b);
    d.u64(row.tenants);
    d.u64(row.validated);
  }
}
void body(Digest& d, const serve::WhatIfCutResult& r) {
  d.u64(r.conduits_cut);
  d.u64(r.links_severed);
  d.u64(r.isps_hit);
  d.f64(r.connected_fraction_before);
  d.f64(r.connected_fraction_after);
  d.u64(r.components_after);
}
void body(Digest& d, const serve::CityPathResult& r) {
  d.u64(r.reachable);
  for (const auto& hop : r.hops) {
    d.str(hop.a);
    d.str(hop.b);
    d.f64(hop.km);
  }
  d.f64(r.km);
  d.f64(r.delay_ms);
}
void body(Digest& d, const serve::HammingNeighborsResult& r) {
  d.str(r.isp);
  for (const auto& n : r.neighbors) {
    d.str(n.isp);
    d.u64(n.distance);
  }
}
void pair_body(Digest& d, const dissect::PairDissection& p) {
  d.u64(p.a);
  d.u64(p.b);
  for (double v : {p.clat_ms, p.los_ms, p.row_ms, p.fiber_ms, p.refraction_ms, p.row_inflation_ms,
                   p.detour_ms, p.stretch, p.achievable_ms}) {
    d.f64(v);
  }
  d.u64(p.fiber_reachable);
  d.u64(p.row_reachable);
}
void body(Digest& d, const serve::LatencyDissectionResult& r) {
  d.str(r.from);
  d.str(r.to);
  pair_body(d, r.dissection);
}
void body(Digest& d, const serve::CLatencyAuditResult& r) {
  d.u64(r.cities);
  d.u64(r.pairs);
  d.f64(r.median_stretch);
  d.f64(r.total_achievable_ms);
}
void body(Digest& d, const serve::WhatIfCascadeResult& r) {
  d.u64(r.conduits_cut);
  d.u64(r.rounds);
  d.u64(r.converged);
  for (auto c : r.overload_failures) d.u64(c);
  d.u64(r.conduits_dead);
  for (double v : {r.giant_component, r.l3_edges_dead, r.l3_reachability, r.demand_delivered,
                   r.mean_stretch}) {
    d.f64(v);
  }
  d.u64(r.links_undeliverable);
  d.u64(r.isps_hit);
}
void body(Digest&, const serve::SleepResult&) {}

std::uint64_t digest_dataset(const serve::Snapshot& snap) {
  Digest d;
  d.str(core::serialize_dataset(snap.map(), snap.cities(), snap.row(), snap.truth().profiles()));
  return d.value();
}

std::uint64_t digest_response(const serve::Response& response) {
  Digest d;
  d.u64(static_cast<std::uint64_t>(response.status));
  d.str(response.error);
  std::visit([&d](const auto& b) { body(d, b); }, response.body);
  return d.value();
}

/// The request's exact identity (doubles by bit pattern, cut lists as
/// given), so the recomputation memo never relies on the program's own
/// cache key.
std::uint64_t request_identity(const serve::Request& request) {
  Digest d;
  d.u64(request.index());
  std::visit(
      [&d](const auto& q) {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, serve::SharedRiskQuery>) {
          d.str(q.isp);
        } else if constexpr (std::is_same_v<T, serve::TopConduitsQuery>) {
          d.u64(q.k);
        } else if constexpr (std::is_same_v<T, serve::WhatIfCutQuery>) {
          for (auto c : q.cuts) d.u64(c);
        } else if constexpr (std::is_same_v<T, serve::CityPathQuery> ||
                             std::is_same_v<T, serve::LatencyDissectionQuery>) {
          d.str(q.from);
          d.str(q.to);
        } else if constexpr (std::is_same_v<T, serve::HammingNeighborsQuery>) {
          d.str(q.isp);
          d.u64(q.k);
        } else if constexpr (std::is_same_v<T, serve::CLatencyAuditQuery>) {
          d.u64(q.top_k);
          d.f64(q.target_factor);
        } else if constexpr (std::is_same_v<T, serve::WhatIfCascadeQuery>) {
          for (auto c : q.cuts) d.u64(c);
          d.f64(q.capacity_margin);
          d.u64(q.max_rounds);
        } else {
          d.f64(q.ms);
        }
      },
      request);
  return d.value();
}

enum Class { kPoint, kPath, kCut, kDissect, kCascade, kNumClasses };

Class class_of(const serve::Request& request) {
  switch (serve::request_type(request)) {
    case serve::RequestType::CityPath: return kPath;
    case serve::RequestType::WhatIfCut: return kCut;
    case serve::RequestType::LatencyDissection: return kDissect;
    case serve::RequestType::WhatIfCascade: return kCascade;
    default: return kPoint;
  }
}

/// One answered request as the client saw it.
struct Answer {
  double latency_us = 0.0;
  std::uint64_t epoch = 0;
  std::uint64_t digest = 0;
  bool ok = false;
  bool stale = false;  ///< served at an epoch older than the fleet's at submit
};

struct Fixture {
  std::shared_ptr<const worldgen::World> world;
  std::shared_ptr<serve::Snapshot> base;
  std::unique_ptr<serve::ShardedEngine> fleet;
};

core::WorldView view_of(const std::shared_ptr<const worldgen::World>& world) {
  core::WorldView view = world->view();
  view.owner = world;
  return view;
}

serve::ShardedOptions fleet_options(std::size_t shards, std::size_t threads) {
  serve::ShardedOptions options;
  options.shards = shards;
  options.threads_per_shard = threads;
  return options;
}

Fixture set_up(std::uint64_t seed, double& generate_s, double& snapshot_s) {
  Fixture f;
  auto t0 = Clock::now();
  worldgen::WorldSpec spec;
  spec.scale = 1.0;
  f.world = std::make_shared<const worldgen::World>(worldgen::generate_world(spec.with_seed(seed)));
  generate_s = seconds_since(t0);
  t0 = Clock::now();
  f.base = serve::Snapshot::build(view_of(f.world), {0, "serve-live"});
  snapshot_s = seconds_since(t0);
  f.fleet = std::make_unique<serve::ShardedEngine>(fleet_options(kShards, 0));
  f.fleet->publish(f.base);
  return f;
}

/// Inline engines over retained snapshots, one per epoch.  Each distinct
/// (epoch, request) the clients saw is recomputed once, on a pool.
class Verifier {
 public:
  void retain(std::uint64_t epoch, std::shared_ptr<const serve::Snapshot> snapshot) {
    auto slot = std::make_unique<Slot>();
    slot->store.install(std::move(snapshot));
    slot->engine = std::make_unique<serve::Engine>(slot->store, inline_);
    engines_[epoch] = std::move(slot);
  }

  /// Answers whose status and body differ from the recomputation at their
  /// epoch (an unretained epoch counts as a difference).
  std::size_t mismatches(const std::vector<const serve::Request*>& requests,
                         const std::vector<const Answer*>& answers, sim::Executor& pool) {
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> index;
    std::vector<std::size_t> job_of(answers.size());
    std::vector<std::size_t> jobs;  // first answer of each distinct job
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const auto key = std::make_pair(answers[i]->epoch, request_identity(*requests[i]));
      const auto [it, fresh] = index.emplace(key, jobs.size());
      if (fresh) jobs.push_back(i);
      job_of[i] = it->second;
    }
    std::vector<std::uint64_t> expected(jobs.size(), 0);
    std::vector<char> known(jobs.size(), 0);
    pool.parallel_for(0, jobs.size(), [&](std::size_t j) {
      const auto slot = engines_.find(answers[jobs[j]]->epoch);
      if (slot == engines_.end()) return;
      expected[j] = digest_response(slot->second->engine->serve(*requests[jobs[j]]));
      known[j] = 1;
    });
    std::size_t bad = 0;
    for (std::size_t i = 0; i < answers.size(); ++i) {
      if (!known[job_of[i]] || expected[job_of[i]] != answers[i]->digest) ++bad;
    }
    return bad;
  }

  void clear() { engines_.clear(); }

 private:
  struct Slot {
    serve::SnapshotStore store;
    std::unique_ptr<serve::Engine> engine;
  };
  sim::Executor inline_{1};
  std::map<std::uint64_t, std::unique_ptr<Slot>> engines_;
};

}  // namespace

Result run_serve_live(const Options& options) {
  Result res;

  // Every fixture is the same world, so the script drawn over the first
  // one's base snapshot is valid for all of them.
  std::vector<double> setups, generates, snapshots;
  Fixture fx;
  const auto set_up_fixtures = [&] {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      fx = Fixture{};  // tear the previous fixture down outside the timed region
      const auto t0 = Clock::now();
      double generate_s = 0.0, snapshot_s = 0.0;
      fx = set_up(kWorldSeed, generate_s, snapshot_s);
      setups.push_back(seconds_since(t0));
      generates.push_back(generate_s);
      snapshots.push_back(snapshot_s);
    }
  };
  set_up_fixtures();
  const ServeScript script =
      make_serve_script(options.seed, *fx.base, kClients, kPerClient, kDeltaEvery);

  std::vector<double> pass_s, apply_ms, purge_ms;
  std::vector<std::vector<double>> latency(kNumClasses);
  std::vector<double> all_latency;
  std::uint64_t requests = 0, stale = 0, mismatches = 0;
  std::string first_digest;
  Verifier verifier;
  sim::Executor pool(options.threads);  // checking runs between passes only
  double measured_s = 0.0;  // the budget counts pass time, not checking time
  while (pass_s.size() < 2 || measured_s < options.seconds) {
    if (!pass_s.empty()) set_up_fixtures();
    serve::ShardedEngine& fleet = *fx.fleet;
    serve::LiveMap replay(fx.base);  // mirrors the fleet's own LiveMap
    const std::uint64_t pass_epoch = fleet.epoch();
    verifier.retain(pass_epoch, fleet.current());
    std::vector<std::vector<Answer>> answers(kClients);
    std::vector<double> pass_apply, pass_purge;
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> apply_failures{0};
    std::vector<std::exception_ptr> errors(kClients);
    const auto client = [&](std::size_t c) {
      const auto& stream = script.requests[c];
      auto& out = answers[c];
      out.resize(stream.size());
      while (!go.load(std::memory_order_acquire)) {
      }
      try {
        for (std::size_t k = 0; k < stream.size(); ++k) {
          const std::uint64_t before = fleet.epoch();
          const auto t0 = Clock::now();
          const serve::Response response = fleet.serve(stream[k]);
          const double us = seconds_since(t0) * 1e6;
          Answer& a = out[k];
          a.latency_us = us;
          a.epoch = response.epoch;
          a.ok = response.status == serve::Status::Ok;
          a.stale = response.epoch < before;
          a.digest = digest_response(response);
          if (c == 0 && (k + 1) % script.delta_every == 0) {
            const auto& batch = script.deltas[(k + 1) / script.delta_every - 1];
            try {
              auto t1 = Clock::now();
              fleet.apply(batch);
              pass_apply.push_back(seconds_since(t1) * 1e3);
              t1 = Clock::now();
              fleet.purge_stale_cache();
              pass_purge.push_back(seconds_since(t1) * 1e3);
            } catch (const std::invalid_argument&) {
              apply_failures.fetch_add(1);  // a rejected batch; the run goes on
            }
          }
        }
      } catch (...) {
        errors[c] = std::current_exception();  // rethrown after every client joined
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < kClients; ++c) threads.emplace_back(client, c);
    const auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    client(0);
    for (auto& t : threads) t.join();
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    pass_s.push_back(seconds_since(t0));
    measured_s += pass_s.back();

    // Outside the measured time: record, then check every response.  The
    // peak RSS is read before the first check allocates its own tables.
    if (pass_s.size() == 1) res.peak_rss_mb = peak_rss_mb();
    res.attempted += kClients * kPerClient + script.deltas.size();
    res.failed += apply_failures.load();
    apply_ms.insert(apply_ms.end(), pass_apply.begin(), pass_apply.end());
    purge_ms.insert(purge_ms.end(), pass_purge.begin(), pass_purge.end());
    // Rebuild the pass's epochs; a batch the fleet rejected is rejected
    // here too and makes no epoch.
    std::uint64_t epoch = pass_epoch;
    std::shared_ptr<const serve::Snapshot> rebuilt = fleet.current();
    for (const auto& batch : script.deltas) {
      try {
        rebuilt = replay.apply(batch);
      } catch (const std::invalid_argument&) {
        continue;
      }
      verifier.retain(++epoch, rebuilt);
    }
    res.check(fleet.epoch() == epoch &&
                  digest_dataset(*fleet.current()) == digest_dataset(*rebuilt),
              "serve-live: the fleet's map after pass " + std::to_string(pass_s.size()) +
                  " differs from the LiveMap replay");
    Digest stream0;
    std::vector<const serve::Request*> checked_requests;
    std::vector<const Answer*> checked_answers;
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t k = 0; k < kPerClient; ++k) {
        const Answer& a = answers[c][k];
        const serve::Request& request = script.requests[c][k];
        ++requests;
        if (!a.ok) ++res.failed;
        if (a.stale) ++stale;
        latency[class_of(request)].push_back(a.latency_us);
        all_latency.push_back(a.latency_us);
        checked_requests.push_back(&request);
        checked_answers.push_back(&a);
        if (c == 0) {
          stream0.u64(a.epoch - pass_epoch);
          stream0.u64(a.digest);
        }
      }
    }
    mismatches += verifier.mismatches(checked_requests, checked_answers, pool);
    verifier.clear();
    if (first_digest.empty()) first_digest = stream0.hex();
    res.check(stream0.hex() == first_digest,
              "serve-live: client 0 stream of pass " + std::to_string(pass_s.size()) +
                  " differs from pass 1");
  }
  res.digest = first_digest;
  res.check(mismatches == 0, "serve-live: " + std::to_string(mismatches) +
                                 " responses differ from an inline recomputation at their epoch");

  double total_s = 0.0;
  for (double s : pass_s) total_s += s;
  const double qps = static_cast<double>(requests) / total_s;
  const double p50 = median(all_latency);
  const double p99 = percentile(all_latency, 99.0);
  char spread[192];
  std::snprintf(spread, sizeof spread,
                "p25 %.1f, p50 %.1f, p75 %.1f, p90 %.1f, p99.9 %.1f, p99.99 %.1f us over %zu "
                "samples",
                percentile(all_latency, 25.0), p50, percentile(all_latency, 75.0),
                percentile(all_latency, 90.0), percentile(all_latency, 99.9),
                percentile(all_latency, 99.99), all_latency.size());
  const double apply = median(apply_ms);
  res.gated = {{"setup_s", median(setups), "s"},
               {"pass_s", median(pass_s), "s"},
               {"stage1_ms", p50 / 1e3, "ms"},
               {"stage2_ms", p99 / 1e3, "ms"},
               {"stage3_ms", apply, "ms"}};
  res.figures = {{"setup_s", median(setups), "s"},
                 {"serve_qps", qps, "1/s"},
                 {"serve_p50_us", p50, "us"},
                 {"serve_p99_us", p99, "us"},
                 {"delta_apply_ms", apply, "ms"}};
  res.rates.push_back({"serve_qps", static_cast<double>(requests), total_s, qps});

  const auto& base_map = fx.base->map();
  const auto cache = fx.fleet->cache_stats();  // the last pass's fleet
  res.context = {
      {"world", "worldgen scale 1, " +
                    std::to_string(fx.world->cities().size()) + " cities, " +
                    std::to_string(base_map.conduits().size()) + " conduits, " +
                    std::to_string(base_map.links().size()) + " links"},
      {"fleet", std::to_string(kShards) + " shards, inline (threads_per_shard 0), " +
                    std::to_string(kClients) + " closed-loop clients"},
      {"script", std::to_string(kPerClient) + " requests per client per pass, a delta every " +
                     std::to_string(kDeltaEvery) + " client-0 requests, Zipf " +
                     std::to_string(script.zipf_exponent) + " over " +
                     std::to_string(script.key_space) + " keys, what-if ids < " +
                     std::to_string(script.min_conduits)},
      {"passes", std::to_string(pass_s.size()) + ", delta applies " +
                     std::to_string(apply_ms.size())},
      {"latency", spread},
  };

  if (!options.trace) return res;

  std::vector<std::pair<std::string, Metric>> layers = {
      {"setup_s", {"worldgen.generate_s", median(generates), "s"}},
      {"setup_s", {"serve.snapshot_build_ms", median(snapshots) * 1e3, "ms"}},
      {"serve_p50_us", {"serve.point_p50_us", median(latency[kPoint]), "us"}},
      {"serve_p50_us", {"serve.path_p50_us", median(latency[kPath]), "us"}},
      {"serve_p50_us", {"serve.cut_p50_us", median(latency[kCut]), "us"}},
      {"serve_p50_us", {"serve.cache_hit_ratio", cache.hit_ratio(), "ratio"}},
      {"serve_p50_us", {"serve.cache_evictions", double(cache.evictions), "count"}},
      {"serve_p50_us", {"serve.cache_invalidations", double(cache.invalidations), "count"}},
      {"serve_p99_us", {"serve.cascade_p50_us", median(latency[kCascade]), "us"}},
      {"serve_p99_us", {"serve.cascade_p99_us", percentile(latency[kCascade], 99.0), "us"}},
      {"serve_p99_us", {"serve.dissect_p50_us", median(latency[kDissect]), "us"}},
      {"serve_qps", {"serve.point_count", double(latency[kPoint].size()), "count"}},
      {"serve_qps", {"serve.path_count", double(latency[kPath].size()), "count"}},
      {"serve_qps", {"serve.cut_count", double(latency[kCut].size()), "count"}},
      {"serve_qps", {"serve.dissect_count", double(latency[kDissect].size()), "count"}},
      {"serve_qps", {"serve.cascade_count", double(latency[kCascade].size()), "count"}},
      {"delta_apply_ms", {"serve.purge_ms", median(purge_ms), "ms"}},
      {"delta_apply_ms", {"serve.stale_reads", double(stale), "count"}},
  };

  // Untraced replay of the sample: inline engine, then a one-worker fleet,
  // each on a fresh snapshot of the same world.
  std::vector<const serve::Request*> sample;
  {
    std::uint64_t state = options.seed ^ 0x7ace5a4full;
    for (std::size_t i = 0; i < kTraceSample; ++i) {
      const std::uint64_t r = mix64(state++);
      const auto& stream = script.requests[r % kClients];
      sample.push_back(&stream[(r >> 8) % stream.size()]);
    }
  }
  serve::SnapshotStore inline_store;
  inline_store.publish(serve::Snapshot::build(view_of(fx.world), {0, "serve-live"}));
  sim::Executor serial(1);
  std::vector<double> inline_us, worker_us;
  {
    serve::Engine engine(inline_store, serial);
    for (const auto* request : sample) {
      const auto t0 = Clock::now();
      engine.serve(*request);
      inline_us.push_back(seconds_since(t0) * 1e6);
    }
    serve::ShardedEngine worker(fleet_options(1, 1));
    worker.publish(serve::Snapshot::build(view_of(fx.world), {0, "serve-live"}));
    for (const auto* request : sample) {
      const auto t0 = Clock::now();
      worker.serve(*request);
      worker_us.push_back(seconds_since(t0) * 1e6);
    }
  }

  // Tracing overhead: replays of the sample on fresh inline engines,
  // alternately untraced and with two spans per request; the difference of
  // the median replay times, per request.
  double overhead_s = 0.0, overhead_pct = 0.0;
  {
    std::vector<double> plain, traced;
    for (int round = 0; round < 3; ++round) {
      for (const bool on : {false, true}) {
        trace::enable(on);
        serve::Engine engine(inline_store, serial);
        const auto t0 = Clock::now();
        for (const auto* request : sample) {
          trace::Span op("serve.overhead");
          trace::Span span("serve.engine");
          engine.serve(*request);
        }
        (on ? traced : plain).push_back(seconds_since(t0));
      }
    }
    overhead_s = (median(traced) - median(plain)) / static_cast<double>(sample.size());
    overhead_pct = 100.0 * (median(traced) / median(plain) - 1.0);
  }
  trace::reset();

  // Traced replay: key, kernel, inline engine, one-worker fleet.
  trace::enable(true);
  serve::Engine engine(inline_store, serial);
  serve::ShardedEngine worker(fleet_options(1, 1));
  worker.publish(serve::Snapshot::build(view_of(fx.world), {0, "serve-live"}));
  const auto& tsnap = *inline_store.current();
  serve::fastpath::RequestScratch scratch;
  scratch.warm(tsnap);
  const dissect::LatencyDissector dissector(tsnap.shared_path_engine(), tsnap.map().nodes(),
                                            tsnap.cities(), tsnap.row());
  const auto& profiles = tsnap.truth().profiles();
  std::size_t kernel_mismatches = 0;
  std::uint64_t request_id = 0;
  for (const auto* request : sample) {
    // Names resolve before the operation starts: only the pieces are timed.
    transport::CityId a = 0, b = 0;
    isp::IspId isp = isp::kNoIsp;
    std::visit(
        [&](const auto& q) {
          using T = std::decay_t<decltype(q)>;
          if constexpr (requires { q.from; }) {
            a = *tsnap.cities().find(q.from);
            b = *tsnap.cities().find(q.to);
          } else if constexpr (requires { q.isp; }) {
            isp = isp::find_profile(profiles, q.isp);
          }
          (void)sizeof(T);
        },
        *request);
    Digest kernel;
    serve::Response inline_response, worker_response;
    trace::set_request(++request_id);
    {
      trace::Span op("serve.request");
      {
        trace::Span span("serve.key");
        serve::canonical_key(*request);
      }
      if (std::holds_alternative<serve::CityPathQuery>(*request)) {
        trace::Span span("serve.kernel_path");
        serve::fastpath::fast_city_path(tsnap, a, b, scratch);
        kernel.f64(scratch.path.reachable ? scratch.path.cost : 0.0);
      } else if (const auto* q = std::get_if<serve::WhatIfCutQuery>(request)) {
        trace::Span span("serve.kernel_cut");
        serve::fastpath::CutImpact impact;
        serve::fastpath::fast_what_if_cut(tsnap.soa(), q->cuts, scratch, impact);
        kernel.u64(impact.links_severed);
        kernel.f64(impact.connected_fraction_after);
      } else if (const auto* q = std::get_if<serve::HammingNeighborsQuery>(request)) {
        trace::Span span("serve.kernel_hamming");
        const std::size_t n =
            serve::fastpath::fast_hamming_neighbors(tsnap.soa(), isp, q->k, scratch);
        for (std::size_t i = 0; i < n; ++i) kernel.u64(scratch.hamming[i].first);
      } else if (std::holds_alternative<serve::SharedRiskQuery>(*request)) {
        trace::Span span("serve.kernel_risk");
        kernel.f64(serve::fastpath::fast_shared_risk(tsnap.soa(), isp).mean_sharing);
      } else if (const auto* q = std::get_if<serve::TopConduitsQuery>(request)) {
        trace::Span span("serve.kernel_top");
        kernel.u64(serve::fastpath::fast_top_conduits(tsnap.soa(), q->k));
      } else if (std::holds_alternative<serve::LatencyDissectionQuery>(*request)) {
        trace::Span span("dissect.pair");
        pair_body(kernel, dissector.dissect_pair(a, b));
      } else if (const auto* q = std::get_if<serve::WhatIfCascadeQuery>(request)) {
        trace::Span span("cascade.whatif");
        auto cuts = q->cuts;
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        cascade::CascadeParams params;
        params.capacity_margin = q->capacity_margin;
        params.max_rounds = q->max_rounds;
        const auto outcome = tsnap.cascade_engine().run_cascade(cuts, params);
        kernel.u64(outcome.fixed_point_round);
        kernel.u64(outcome.rounds.back().conduits_dead);
      }
      {
        trace::Span span("serve.engine");
        inline_response = engine.serve(*request);
      }
      {
        trace::Span span("serve.dispatch");
        worker_response = worker.serve(*request);
      }
    }
    // The kernel's figures must be the ones the engine presents.
    Digest presented;
    std::visit(
        [&](const auto& b) {
          using T = std::decay_t<decltype(b)>;
          if constexpr (std::is_same_v<T, serve::CityPathResult>) {
            presented.f64(b.reachable ? b.km : 0.0);
          } else if constexpr (std::is_same_v<T, serve::WhatIfCutResult>) {
            presented.u64(b.links_severed);
            presented.f64(b.connected_fraction_after);
          } else if constexpr (std::is_same_v<T, serve::HammingNeighborsResult>) {
            for (const auto& n : b.neighbors) presented.u64(n.distance);
          } else if constexpr (std::is_same_v<T, serve::SharedRiskResult>) {
            presented.f64(b.mean_sharing);
          } else if constexpr (std::is_same_v<T, serve::TopConduitsResult>) {
            presented.u64(b.rows.size());
          } else if constexpr (std::is_same_v<T, serve::LatencyDissectionResult>) {
            pair_body(presented, b.dissection);
          } else if constexpr (std::is_same_v<T, serve::WhatIfCascadeResult>) {
            presented.u64(b.rounds);
            presented.u64(b.conduits_dead);
          }
        },
        inline_response.body);
    if (presented.value() != kernel.value() ||
        digest_response(inline_response) != digest_response(worker_response)) {
      ++kernel_mismatches;
    }
  }
  trace::set_request(0);
  res.check(kernel_mismatches == 0, "serve-live: " + std::to_string(kernel_mismatches) +
                                        " sampled requests: kernel, inline engine and "
                                        "one-worker fleet disagree");

  // Traced delta prefix: LiveMap::apply, a second derive of the same map,
  // and the epoch install a two-shard fleet performs.  Each epoch must
  // equal the one ShardedEngine::apply makes of the same batch.
  serve::LiveMap live(fx.base);
  serve::SnapshotStore primary;
  std::vector<serve::SnapshotStore> shard_stores(kShards);
  serve::ShardedEngine reference(fleet_options(kShards, 0));
  reference.publish(serve::Snapshot::build(view_of(fx.world), {0, "serve-live"}));
  std::size_t delta_mismatches = 0;
  const std::size_t traced_deltas = std::min(kTraceDeltas, script.deltas.size());
  for (std::size_t j = 0; j < traced_deltas; ++j) {
    std::shared_ptr<serve::Snapshot> next;
    {
      trace::Span op("serve.apply");
      {
        trace::Span span("serve.live_apply");
        next = live.apply(script.deltas[j]);
      }
      {
        trace::Span span("serve.derive");
        serve::Snapshot::with_map(*fx.base, next->map(), script.deltas[j].label);
      }
      {
        trace::Span span("serve.install");
        primary.publish(next);
        for (auto& store : shard_stores) store.install(next);
      }
    }
    reference.apply(script.deltas[j]);
    if (digest_dataset(*next) != digest_dataset(*reference.current())) ++delta_mismatches;
  }
  trace::enable(false);
  res.check(delta_mismatches == 0,
            "serve-live: LiveMap::apply sequence differs from the fleet's epochs");

  const auto records = trace::collect();
  res.trace_table = trace::self_time_table(records);
  if (!options.trace_out.empty()) {
    res.check(trace::write_chrome(options.trace_out, records),
              "trace: cannot write " + options.trace_out);
  }
  const auto span_us = [&](const char* name) {
    return median(trace::durations(records, name)) * 1e6;
  };
  const auto span_ms = [&](const char* name) {
    return median(trace::durations(records, name)) * 1e3;
  };
  layers.insert(
      layers.end(),
      {
          {"serve_p50_us", {"serve.key_us", span_us("serve.key"), "us"}},
          {"serve_p50_us", {"serve.kernel_path_us", span_us("serve.kernel_path"), "us"}},
          {"serve_p50_us", {"serve.kernel_cut_us", span_us("serve.kernel_cut"), "us"}},
          {"serve_p50_us", {"serve.kernel_hamming_us", span_us("serve.kernel_hamming"), "us"}},
          {"serve_p99_us", {"cascade.whatif_us", span_us("cascade.whatif"), "us"}},
          {"serve_p99_us", {"dissect.pair_us", span_us("dissect.pair"), "us"}},
          {"delta_apply_ms", {"serve.live_apply_ms", span_ms("serve.live_apply"), "ms"}},
          {"delta_apply_ms", {"serve.derive_ms", span_ms("serve.derive"), "ms"}},
          {"delta_apply_ms", {"serve.install_ms", span_ms("serve.install"), "ms"}},
          {"(gap)", {"serve.dispatch_us", median(worker_us) - median(inline_us), "us"}},
          {"serve_p50_us", {"trace.overhead_us", overhead_s * 1e6, "us"}},
          {"serve_p50_us", {"trace.overhead_pct", overhead_pct, "%"}},
      });
  res.layers = std::move(layers);
  return res;
}

}  // namespace perfbench
