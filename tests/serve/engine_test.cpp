#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "cascade/cascade.hpp"
#include "geo/latency.hpp"
#include "test_support.hpp"

namespace intertubes::serve {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::shared_ptr<const core::Scenario> scenario_ptr() {
  return {std::shared_ptr<const core::Scenario>{}, &testing::shared_scenario()};
}

/// Store with the canonical world published once, shared by the fast tests.
SnapshotStore& shared_store() {
  static SnapshotStore* store = [] {
    auto* s = new SnapshotStore();
    s->publish(Snapshot::build(scenario_ptr()));
    return s;
  }();
  return *store;
}

template <typename T>
const T& body_of(const Response& response) {
  EXPECT_EQ(response.status, Status::Ok) << response.error;
  return std::get<T>(response.body);
}

TEST(ServeEngine, SharedRiskMatchesDirectComputation) {
  Engine engine(shared_store(), sim::default_executor());
  const auto& profiles = testing::shared_scenario().truth().profiles();
  const auto matrix = risk::RiskMatrix::from_map(testing::shared_scenario().map());
  const auto ranking = matrix.isp_risk_ranking();
  for (const auto& expected : ranking) {
    const auto response = engine.serve(SharedRiskQuery{profiles[expected.isp].name});
    const auto& result = body_of<SharedRiskResult>(response);
    EXPECT_EQ(result.isp, profiles[expected.isp].name);
    EXPECT_EQ(result.conduits_used, expected.conduits_used);
    EXPECT_DOUBLE_EQ(result.mean_sharing, expected.mean_sharing);
    EXPECT_DOUBLE_EQ(result.p25, expected.p25);
    EXPECT_DOUBLE_EQ(result.p75, expected.p75);
  }
}

TEST(ServeEngine, UnknownNamesAreNotFound) {
  Engine engine(shared_store(), sim::default_executor());
  EXPECT_EQ(engine.serve(SharedRiskQuery{"NoSuchISP"}).status, Status::NotFound);
  EXPECT_EQ(engine.serve(HammingNeighborsQuery{"NoSuchISP", 3}).status, Status::NotFound);
  EXPECT_EQ(engine.serve(CityPathQuery{"Atlantis, XX", "New York, NY"}).status,
            Status::NotFound);
}

TEST(ServeEngine, BadParametersAreBadRequests) {
  Engine engine(shared_store(), sim::default_executor());
  EXPECT_EQ(engine.serve(WhatIfCutQuery{{}}).status, Status::BadRequest);
  const auto huge =
      static_cast<core::ConduitId>(testing::shared_scenario().map().conduits().size());
  EXPECT_EQ(engine.serve(WhatIfCutQuery{{huge}}).status, Status::BadRequest);
  EXPECT_EQ(engine.serve(SleepQuery{-1.0}).status, Status::BadRequest);
  // Non-finite durations are refused rather than slept on.
  EXPECT_EQ(engine.serve(SleepQuery{kNaN}).status, Status::BadRequest);
  EXPECT_EQ(engine.serve(SleepQuery{kInf}).status, Status::BadRequest);
  EXPECT_EQ(engine.serve(SleepQuery{-kInf}).status, Status::BadRequest);
}

TEST(ServeEngine, DegenerateKIsWellDefinedNotAnError) {
  // k == 0 answers empty, k beyond the candidate count answers the whole
  // ranking — deterministically Ok, never BadRequest.
  Engine engine(shared_store(), sim::default_executor());
  const auto snap = shared_store().current();

  const auto empty_top = engine.serve(TopConduitsQuery{0});
  ASSERT_EQ(empty_top.status, Status::Ok);
  EXPECT_TRUE(body_of<TopConduitsResult>(empty_top).rows.empty());

  const std::size_t num_conduits = snap->map().conduits().size();
  const auto all_top = engine.serve(TopConduitsQuery{num_conduits + 100});
  ASSERT_EQ(all_top.status, Status::Ok);
  EXPECT_EQ(body_of<TopConduitsResult>(all_top).rows.size(), num_conduits);
  // Deterministic: the oversized ask answers exactly the full ranking.
  const auto full = snap->matrix().most_shared_conduits(num_conduits);
  const auto& rows = body_of<TopConduitsResult>(all_top).rows;
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i].conduit, full[i]);

  const auto empty_hamming = engine.serve(HammingNeighborsQuery{"Sprint", 0});
  ASSERT_EQ(empty_hamming.status, Status::Ok);
  EXPECT_TRUE(body_of<HammingNeighborsResult>(empty_hamming).neighbors.empty());

  const std::size_t num_isps = snap->map().num_isps();
  const auto all_hamming = engine.serve(HammingNeighborsQuery{"Sprint", num_isps + 100});
  ASSERT_EQ(all_hamming.status, Status::Ok);
  EXPECT_EQ(body_of<HammingNeighborsResult>(all_hamming).neighbors.size(), num_isps - 1);
}

TEST(ServeEngine, TopConduitsMatchesMatrix) {
  Engine engine(shared_store(), sim::default_executor());
  const auto response = engine.serve(TopConduitsQuery{5});
  const auto& result = body_of<TopConduitsResult>(response);
  const auto snap = shared_store().current();
  const auto expected = snap->matrix().most_shared_conduits(5);
  ASSERT_EQ(result.rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& conduit = snap->map().conduit(expected[i]);
    EXPECT_EQ(result.rows[i].conduit, expected[i]);
    EXPECT_EQ(result.rows[i].tenants, conduit.tenants.size());
    EXPECT_EQ(result.rows[i].a, core::Scenario::cities().city(conduit.a).display_name());
  }
  // Descending tenancy.
  for (std::size_t i = 1; i < result.rows.size(); ++i) {
    EXPECT_GE(result.rows[i - 1].tenants, result.rows[i].tenants);
  }
}

TEST(ServeEngine, CityPathIsContiguousWithConsistentDelay) {
  Engine engine(shared_store(), sim::default_executor());
  const auto response = engine.serve(CityPathQuery{"San Francisco, CA", "New York, NY"});
  const auto& result = body_of<CityPathResult>(response);
  ASSERT_TRUE(result.reachable);
  ASSERT_FALSE(result.hops.empty());
  EXPECT_EQ(result.hops.front().a, "San Francisco, CA");
  EXPECT_EQ(result.hops.back().b, "New York, NY");
  double km = 0.0;
  for (std::size_t i = 0; i < result.hops.size(); ++i) {
    km += result.hops[i].km;
    if (i > 0) {
      EXPECT_EQ(result.hops[i - 1].b, result.hops[i].a);
    }
  }
  EXPECT_NEAR(km, result.km, 1e-6);
  EXPECT_NEAR(result.delay_ms, geo::fiber_delay_ms(result.km), 1e-9);
  EXPECT_GT(result.km, 3000.0);  // the continent is wide
}

TEST(ServeEngine, CityPathSameCityIsTrivial) {
  Engine engine(shared_store(), sim::default_executor());
  const auto response = engine.serve(CityPathQuery{"Denver, CO", "Denver, CO"});
  const auto& result = body_of<CityPathResult>(response);
  EXPECT_TRUE(result.reachable);
  EXPECT_TRUE(result.hops.empty());
  EXPECT_EQ(result.km, 0.0);
}

TEST(ServeEngine, WhatIfCutReportsBlastRadius) {
  Engine engine(shared_store(), sim::default_executor());
  const auto snap = shared_store().current();
  const auto target = snap->matrix().most_shared_conduits(1).front();
  const auto response = engine.serve(WhatIfCutQuery{{target}});
  const auto& result = body_of<WhatIfCutResult>(response);
  EXPECT_EQ(result.conduits_cut, 1u);
  std::size_t expect_severed = 0;
  std::vector<char> hit(snap->map().num_isps(), 0);
  for (const auto& link : snap->map().links()) {
    for (core::ConduitId cid : link.conduits) {
      if (cid == target) {
        ++expect_severed;
        hit[link.isp] = 1;
        break;
      }
    }
  }
  EXPECT_EQ(result.links_severed, expect_severed);
  EXPECT_EQ(result.isps_hit,
            static_cast<std::size_t>(std::count(hit.begin(), hit.end(), 1)));
  EXPECT_GT(result.links_severed, 0u);
  EXPECT_LE(result.connected_fraction_after, result.connected_fraction_before);
  EXPECT_GT(result.connected_fraction_before, 0.99);  // built map is connected
  EXPECT_GE(result.components_after, 1u);
}

TEST(ServeEngine, HammingNeighborsAreTheKClosest) {
  Engine engine(shared_store(), sim::default_executor());
  const auto& profiles = testing::shared_scenario().truth().profiles();
  const auto response = engine.serve(HammingNeighborsQuery{"Sprint", 4});
  const auto& result = body_of<HammingNeighborsResult>(response);
  ASSERT_EQ(result.neighbors.size(), 4u);
  for (std::size_t i = 1; i < result.neighbors.size(); ++i) {
    EXPECT_GE(result.neighbors[i].distance, result.neighbors[i - 1].distance);
  }
  // Verify against a direct scan of the matrix.
  const auto snap = shared_store().current();
  const auto& matrix = snap->matrix();
  const isp::IspId sprint = isp::find_profile(profiles, "Sprint");
  std::vector<std::pair<std::size_t, isp::IspId>> distances;
  for (isp::IspId other = 0; other < matrix.num_isps(); ++other) {
    if (other == sprint) continue;
    std::size_t d = 0;
    for (core::ConduitId c = 0; c < matrix.num_conduits(); ++c) {
      if (matrix.uses(sprint, c) != matrix.uses(other, c)) ++d;
    }
    distances.emplace_back(d, other);
  }
  std::sort(distances.begin(), distances.end());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.neighbors[i].isp, profiles[distances[i].second].name);
    EXPECT_EQ(result.neighbors[i].distance, distances[i].first);
  }
}

TEST(ServeEngine, CacheHitReturnsIdenticalResultToRecompute) {
  Engine warm(shared_store(), sim::default_executor());
  const Request request = CityPathQuery{"Seattle, WA", "Miami, FL"};
  const auto miss = warm.serve(request);
  EXPECT_FALSE(miss.cache_hit);
  const auto hit = warm.serve(request);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.epoch, miss.epoch);

  // A second engine with a cold cache recomputes from scratch; the
  // memoized response must match it field for field.
  Engine cold(shared_store(), sim::default_executor());
  const auto recomputed = cold.serve(request);
  EXPECT_FALSE(recomputed.cache_hit);
  const auto& a = body_of<CityPathResult>(hit);
  const auto& b = body_of<CityPathResult>(recomputed);
  ASSERT_EQ(a.hops.size(), b.hops.size());
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    EXPECT_EQ(a.hops[i].a, b.hops[i].a);
    EXPECT_EQ(a.hops[i].b, b.hops[i].b);
    EXPECT_DOUBLE_EQ(a.hops[i].km, b.hops[i].km);
  }
  EXPECT_DOUBLE_EQ(a.km, b.km);
  EXPECT_DOUBLE_EQ(a.delay_ms, b.delay_ms);

  const auto stats = warm.cache_stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);
}

TEST(ServeEngine, CanonicalKeysCollapseEquivalentRequests) {
  EXPECT_EQ(canonical_key(WhatIfCutQuery{{7, 3, 7, 3}}), canonical_key(WhatIfCutQuery{{3, 7}}));
  EXPECT_NE(canonical_key(WhatIfCutQuery{{3}}), canonical_key(WhatIfCutQuery{{7}}));
  EXPECT_NE(canonical_key(SharedRiskQuery{"Sprint"}), canonical_key(SharedRiskQuery{"AT&T"}));
  EXPECT_NE(canonical_key(TopConduitsQuery{3}), canonical_key(TopConduitsQuery{4}));
  // Doubles are keyed exactly: parameters that differ in the 7th
  // significant digit or beyond are different requests.
  EXPECT_NE(canonical_key(CLatencyAuditQuery{5, 2.0}),
            canonical_key(CLatencyAuditQuery{5, 2.0000001}));
  EXPECT_NE(canonical_key(SleepQuery{1.0}), canonical_key(SleepQuery{std::nextafter(1.0, 2.0)}));
  // Short decimals keep their short form, so existing keys are unchanged.
  EXPECT_EQ(canonical_key(CLatencyAuditQuery{5, 2.0}), "claudit:5:2");
  EXPECT_EQ(canonical_key(SleepQuery{1.5}), "sleep:1.5");
}

TEST(ServeEngine, EpochBumpInvalidatesCachedResults) {
  SnapshotStore store;
  const auto base = Snapshot::build(scenario_ptr());
  store.publish(base);
  Engine engine(store, sim::default_executor());

  const Request request = TopConduitsQuery{3};
  const auto first = engine.serve(request);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(engine.serve(request).cache_hit);

  // Publish a cut world: the same request must recompute at the new epoch.
  const auto target = base->matrix().most_shared_conduits(1).front();
  store.publish(Snapshot::with_conduits_cut(*base, {target}));
  const auto after = engine.serve(request);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_GT(after.epoch, first.epoch);
  // The old epoch's entries are purgeable now.
  EXPECT_GE(engine.purge_stale_cache(), 1u);
}

TEST(ServeEngine, NoSnapshotIsReportedNotCrashed) {
  SnapshotStore empty;
  Engine engine(empty, sim::default_executor());
  const auto response = engine.serve(SharedRiskQuery{"Sprint"});
  EXPECT_EQ(response.status, Status::NoSnapshot);
  EXPECT_EQ(response.epoch, 0u);
}

TEST(ServeEngine, SerialExecutorRunsInline) {
  sim::Executor serial(1);
  Engine engine(shared_store(), serial);
  auto future = engine.submit(TopConduitsQuery{2});
  // With no workers the request executed in submit(); the future is ready.
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(future.get().status, Status::Ok);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(ServeEngine, AdmissionControlShedsInsteadOfQueueingUnboundedly) {
  sim::Executor executor(2);  // one worker services the queue
  EngineOptions options;
  options.max_pending = 2;
  Engine engine(shared_store(), executor, options);

  // Fill the admission window with slow requests.
  auto slow1 = engine.submit(SleepQuery{250.0});
  auto slow2 = engine.submit(SleepQuery{250.0});
  // Both pending slots are taken; further traffic is shed immediately.
  auto shed = engine.submit(TopConduitsQuery{3});
  EXPECT_EQ(shed.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const auto rejected = shed.get();
  EXPECT_EQ(rejected.status, Status::Overloaded);
  EXPECT_NE(rejected.error.find("max_pending"), std::string::npos);

  EXPECT_EQ(slow1.get().status, Status::Ok);
  EXPECT_EQ(slow2.get().status, Status::Ok);
  // The window is free again: the same request now succeeds.
  EXPECT_EQ(engine.serve(TopConduitsQuery{3}).status, Status::Ok);
  const auto metrics = engine.metrics().snapshot_of(RequestType::TopConduits);
  EXPECT_EQ(metrics.shed, 1u);
  EXPECT_EQ(engine.metrics().total_shed(), 1u);
}

TEST(ServeEngine, MetricsRecordPerTypeTraffic) {
  SnapshotStore store;
  store.publish(Snapshot::build(scenario_ptr()));
  Engine engine(store, sim::default_executor());
  engine.serve(SharedRiskQuery{"Sprint"});
  engine.serve(SharedRiskQuery{"Sprint"});
  engine.serve(CityPathQuery{"Denver, CO", "Chicago, IL"});
  engine.serve(SharedRiskQuery{"NoSuchISP"});

  const auto risk = engine.metrics().snapshot_of(RequestType::SharedRisk);
  EXPECT_EQ(risk.count, 3u);
  EXPECT_EQ(risk.cache_hits, 1u);
  EXPECT_EQ(risk.errors, 1u);  // the NotFound
  EXPECT_GT(risk.p50_us, 0.0);
  EXPECT_GE(risk.p99_us, risk.p50_us);
  EXPECT_GE(risk.max_us, risk.p99_us);

  const auto rendered = engine.render_metrics();
  EXPECT_NE(rendered.find("shared-risk"), std::string::npos);
  EXPECT_NE(rendered.find("city-path"), std::string::npos);
  EXPECT_NE(rendered.find("hit ratio"), std::string::npos);
  EXPECT_EQ(engine.metrics().total_served(), 4u);
}

// The end-to-end stress: concurrent closed-loop clients issuing a mixed
// workload while snapshots hot-swap underneath.  Under TSAN this is the
// acceptance gate for the lock-free read path.
TEST(ServeEngine, MixedLoadSurvivesSnapshotSwaps) {
  SnapshotStore store;
  const auto base = Snapshot::build(scenario_ptr());
  const std::uint64_t base_epoch = store.publish(base);
  Engine engine(store, sim::default_executor());

  const auto targets = base->matrix().most_shared_conduits(4);
  std::atomic<bool> publishing{true};
  std::thread publisher([&] {
    for (int round = 0; round < 8; ++round) {
      store.publish(
          Snapshot::with_conduits_cut(*base, {targets[static_cast<std::size_t>(round % 4)]}));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    publishing.store(false);
  });

  const std::vector<Request> script = {
      SharedRiskQuery{"Sprint"},
      TopConduitsQuery{8},
      CityPathQuery{"San Francisco, CA", "New York, NY"},
      WhatIfCutQuery{{targets[0]}},
      HammingNeighborsQuery{"Sprint", 3},
  };
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const auto& request = script[static_cast<std::size_t>(t + i) % script.size()];
        const auto response = engine.serve(request);
        // Overloaded is legal under load; everything else must be Ok.
        if (response.status == Status::Overloaded) continue;
        ASSERT_EQ(response.status, Status::Ok) << response.error;
        ASSERT_GE(response.epoch, base_epoch);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& client : clients) client.join();
  publisher.join();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_GT(served.load(), 0u);
}

TEST(ServeEngine, LatencyDissectionMatchesDirectDissector) {
  Engine engine(shared_store(), sim::default_executor());
  const auto response = engine.serve(LatencyDissectionQuery{"Seattle, WA", "Miami, FL"});
  const auto& result = body_of<LatencyDissectionResult>(response);
  EXPECT_EQ(result.from, "Seattle, WA");
  EXPECT_EQ(result.to, "Miami, FL");

  const auto& cities = core::Scenario::cities();
  const dissect::LatencyDissector direct(testing::shared_scenario().map(), cities,
                                         testing::shared_scenario().row());
  const auto expected = direct.dissect_pair(*cities.find("Seattle, WA"),
                                            *cities.find("Miami, FL"));
  EXPECT_EQ(result.dissection.fiber_ms, expected.fiber_ms);
  EXPECT_EQ(result.dissection.row_ms, expected.row_ms);
  EXPECT_EQ(result.dissection.clat_ms, expected.clat_ms);
  EXPECT_EQ(result.dissection.detour_ms, expected.detour_ms);
  EXPECT_EQ(result.dissection.stretch, expected.stretch);

  // Second ask is a cache hit with the identical body.
  const auto hit = engine.serve(LatencyDissectionQuery{"Seattle, WA", "Miami, FL"});
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(body_of<LatencyDissectionResult>(hit).dissection.fiber_ms, expected.fiber_ms);
}

TEST(ServeEngine, LatencyDissectionRejectsBadPairs) {
  Engine engine(shared_store(), sim::default_executor());
  EXPECT_EQ(engine.serve(LatencyDissectionQuery{"Atlantis, XX", "Miami, FL"}).status,
            Status::NotFound);
  EXPECT_EQ(engine.serve(LatencyDissectionQuery{"Miami, FL", "Miami, FL"}).status,
            Status::BadRequest);
}

TEST(ServeEngine, CLatencyAuditMatchesDirectStudyAndCaches) {
  Engine engine(shared_store(), sim::default_executor());
  const auto response = engine.serve(CLatencyAuditQuery{5, 2.0});
  const auto& result = body_of<CLatencyAuditResult>(response);

  const dissect::LatencyDissector direct(testing::shared_scenario().map(),
                                         core::Scenario::cities(),
                                         testing::shared_scenario().row());
  const auto study = direct.dissect();
  EXPECT_EQ(result.cities, study.nodes.size());
  EXPECT_EQ(result.pairs, study.pairs.size());
  EXPECT_EQ(result.median_stretch, study.median_stretch);
  EXPECT_EQ(result.p95_stretch, study.p95_stretch);
  EXPECT_EQ(result.within_target, study.within_target);
  EXPECT_EQ(result.total_achievable_ms, study.total_achievable_ms);
  ASSERT_LE(result.top.size(), 5u);
  ASSERT_FALSE(result.top.empty());
  // Ranked nonincreasing by achievable improvement.
  for (std::size_t i = 1; i < result.top.size(); ++i) {
    EXPECT_GE(result.top[i - 1].achievable_ms, result.top[i].achievable_ms);
  }

  // The sweep runs once per epoch: the repeat must be a hit.
  EXPECT_TRUE(engine.serve(CLatencyAuditQuery{5, 2.0}).cache_hit);
  // Different parameters are a different canonical key.
  EXPECT_FALSE(engine.serve(CLatencyAuditQuery{3, 2.0}).cache_hit);
}

TEST(ServeEngine, CLatencyAuditRejectsBadParameters) {
  Engine engine(shared_store(), sim::default_executor());
  EXPECT_EQ(engine.serve(CLatencyAuditQuery{5, 0.5}).status, Status::BadRequest);
  EXPECT_EQ(engine.serve(CLatencyAuditQuery{5, kNaN}).status, Status::BadRequest);
  EXPECT_EQ(engine.serve(CLatencyAuditQuery{5, kInf}).status, Status::BadRequest);
  EXPECT_EQ(engine.serve(CLatencyAuditQuery{5, -kInf}).status, Status::BadRequest);
  // top_k == 0 is a valid degenerate ask: aggregates only, no pair table.
  const auto response = engine.serve(CLatencyAuditQuery{0, 2.0});
  ASSERT_EQ(response.status, Status::Ok);
  const auto& result = body_of<CLatencyAuditResult>(response);
  EXPECT_TRUE(result.top.empty());
  EXPECT_GT(result.pairs, 0u);
}

TEST(ServeEngine, WhatIfCascadeMatchesDirectEngineRun) {
  Engine engine(shared_store(), sim::default_executor());
  const auto snap = shared_store().current();
  auto cuts = snap->matrix().most_shared_conduits(4);

  WhatIfCascadeQuery query;
  query.cuts = cuts;
  query.capacity_margin = 0.1;
  query.max_rounds = 6;
  const auto response = engine.serve(query);
  const auto& result = body_of<WhatIfCascadeResult>(response);

  cascade::CascadeParams params;
  params.capacity_margin = 0.1;
  params.max_rounds = 6;
  std::sort(cuts.begin(), cuts.end());
  const auto outcome = snap->cascade_engine().run_cascade(cuts, params);
  const auto& fixed = outcome.rounds.back();
  EXPECT_EQ(result.conduits_cut, cuts.size());
  EXPECT_EQ(result.rounds, outcome.fixed_point_round);
  EXPECT_EQ(result.converged, outcome.converged);
  EXPECT_EQ(result.overload_failures, outcome.overload_failures);
  EXPECT_EQ(result.conduits_dead, fixed.conduits_dead);
  EXPECT_DOUBLE_EQ(result.giant_component, fixed.giant_component);
  EXPECT_DOUBLE_EQ(result.l3_edges_dead, fixed.l3_edges_dead);
  EXPECT_DOUBLE_EQ(result.l3_reachability, fixed.l3_reachability);
  EXPECT_DOUBLE_EQ(result.demand_delivered, fixed.demand_delivered);
  EXPECT_DOUBLE_EQ(result.mean_stretch, fixed.mean_stretch);
  std::size_t lost = 0;
  std::size_t hit = 0;
  for (std::uint32_t links : outcome.isp_links_lost) {
    lost += links;
    if (links > 0) ++hit;
  }
  EXPECT_EQ(result.links_undeliverable, lost);
  EXPECT_EQ(result.isps_hit, hit);
}

TEST(ServeEngine, WhatIfCascadeRejectsBadParameters) {
  Engine engine(shared_store(), sim::default_executor());
  EXPECT_EQ(engine.serve(WhatIfCascadeQuery{{}}).status, Status::BadRequest);
  const auto huge =
      static_cast<core::ConduitId>(testing::shared_scenario().map().conduits().size());
  EXPECT_EQ(engine.serve(WhatIfCascadeQuery{{huge}}).status, Status::BadRequest);
  EXPECT_EQ(engine.serve(WhatIfCascadeQuery{{0}, -0.1}).status, Status::BadRequest);
  EXPECT_EQ(engine.serve(WhatIfCascadeQuery{{0}, kNaN}).status, Status::BadRequest);
  EXPECT_EQ(engine.serve(WhatIfCascadeQuery{{0}, kInf}).status, Status::BadRequest);
  EXPECT_EQ(engine.serve(WhatIfCascadeQuery{{0}, -kInf}).status, Status::BadRequest);
  EXPECT_EQ(engine.serve(WhatIfCascadeQuery{{0}, 0.25, 0}).status, Status::BadRequest);
  EXPECT_EQ(engine.serve(WhatIfCascadeQuery{{0}, 0.25, 65}).status, Status::BadRequest);
}

TEST(ServeEngine, WhatIfCascadeCanonicalKeyCollapsesEquivalentCutSets) {
  // Permutations and duplicates cache under one key; different overload
  // parameters must not collide.
  const WhatIfCascadeQuery a{{5, 2, 9}, 0.25, 8};
  const WhatIfCascadeQuery b{{9, 2, 5, 2}, 0.25, 8};
  EXPECT_EQ(canonical_key(Request{a}), canonical_key(Request{b}));
  const WhatIfCascadeQuery tighter{{5, 2, 9}, 0.1, 8};
  const WhatIfCascadeQuery shorter{{5, 2, 9}, 0.25, 4};
  EXPECT_NE(canonical_key(Request{a}), canonical_key(Request{tighter}));
  EXPECT_NE(canonical_key(Request{a}), canonical_key(Request{shorter}));
  const WhatIfCascadeQuery nearly{{5, 2, 9}, 0.2500001, 8};
  EXPECT_NE(canonical_key(Request{a}), canonical_key(Request{nearly}));
  EXPECT_EQ(canonical_key(Request{a}), "cascade:2,5,9;m=0.25;r=8");
}

}  // namespace
}  // namespace intertubes::serve
