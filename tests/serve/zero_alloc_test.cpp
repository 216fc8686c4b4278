// The measured allocations-per-query guarantee (DESIGN.md §14).
//
// Every serve fast-path kernel is wrapped in a util::ZeroAllocGuard and
// asserted to perform exactly zero heap allocations at steady state.
// "Steady state" means: the RequestScratch has been warmed (warm() plus
// one cold query per kernel, which sizes the scratch buffers to this
// snapshot's dimensions — the documented warm-up allocations).  From then
// on, every query is a pure pass over the Snapshot SoA and the scratch.
//
// These tests only run for real when util/alloc_hooks.cpp is linked into
// the binary (it is, for intertubes_tests); under a build that drops the
// hooks they skip rather than pass vacuously.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <vector>

#include "cascade/cascade.hpp"
#include "serve/fastpath.hpp"
#include "serve/sharded.hpp"
#include "serve/snapshot.hpp"
#include "test_support.hpp"
#include "util/alloc.hpp"

namespace intertubes::serve {
namespace {

std::shared_ptr<const core::Scenario> scenario_ptr() {
  return {std::shared_ptr<const core::Scenario>{}, &testing::shared_scenario()};
}

/// One snapshot + one warmed scratch, shared by every ZeroAlloc test.
struct Harness {
  std::shared_ptr<Snapshot> snapshot = Snapshot::build(scenario_ptr());
  fastpath::RequestScratch scratch;

  Harness() { scratch.warm(*snapshot); }
};

Harness& harness() {
  static Harness* h = new Harness();
  return *h;
}

class ZeroAllocServe : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::alloc_counting_active()) GTEST_SKIP() << "alloc hooks not linked";
  }
};

TEST_F(ZeroAllocServe, SharedRiskRowIsAllocationFree) {
  auto& h = harness();
  const auto& soa = h.snapshot->soa();
  ASSERT_GT(soa.num_isps, 0u);
  double sink = 0.0;
  util::ZeroAllocGuard guard;
  for (std::uint32_t isp = 0; isp < soa.num_isps; ++isp) {
    sink += fastpath::fast_shared_risk(soa, isp).mean_sharing;
  }
  const auto allocations = guard.allocations();
  EXPECT_EQ(allocations, 0u);
  EXPECT_GE(sink, 0.0);
}

TEST_F(ZeroAllocServe, TopConduitsPrefixIsAllocationFree) {
  auto& h = harness();
  const auto& soa = h.snapshot->soa();
  std::uint64_t sink = 0;
  util::ZeroAllocGuard guard;
  for (std::size_t k = 0; k <= soa.conduits_by_tenancy.size() + 3; ++k) {
    const std::size_t count = fastpath::fast_top_conduits(soa, k);
    for (std::size_t i = 0; i < count; ++i) sink += soa.conduits_by_tenancy[i];
  }
  const auto allocations = guard.allocations();
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(sink, 0u);
}

TEST_F(ZeroAllocServe, CityPathAndDelayAreAllocationFree) {
  auto& h = harness();
  const auto& soa = h.snapshot->soa();
  ASSERT_GT(soa.conduit_a.size(), 4u);
  // Cold pass: sizes the workspace + path buffers for this graph.
  fastpath::fast_city_path(*h.snapshot, soa.conduit_a[0], soa.conduit_b[1], h.scratch);

  util::ZeroAllocGuard guard;
  double km = 0.0;
  for (std::size_t c = 0; c + 1 < 5; ++c) {
    fastpath::fast_city_path(*h.snapshot, soa.conduit_a[c], soa.conduit_b[c + 1], h.scratch);
    if (h.scratch.path.reachable) km += h.scratch.path.cost;
  }
  const auto allocations = guard.allocations();
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(km, 0.0);
}

TEST_F(ZeroAllocServe, HammingNeighborsAreAllocationFree) {
  auto& h = harness();
  const auto& soa = h.snapshot->soa();
  ASSERT_GT(soa.num_isps, 2u);
  // Cold pass sizes scratch.hamming once.
  (void)fastpath::fast_hamming_neighbors(soa, 0, 3, h.scratch);

  std::uint64_t sink = 0;
  util::ZeroAllocGuard guard;
  for (std::uint32_t isp = 0; isp < soa.num_isps; ++isp) {
    const std::size_t count = fastpath::fast_hamming_neighbors(soa, isp, 3, h.scratch);
    for (std::size_t i = 0; i < count; ++i) sink += h.scratch.hamming[i].first;
  }
  const auto allocations = guard.allocations();
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(sink, 0u);
}

TEST_F(ZeroAllocServe, WhatIfCutIsAllocationFree) {
  auto& h = harness();
  const auto& soa = h.snapshot->soa();
  ASSERT_GT(soa.conduit_a.size(), 8u);
  const std::vector<core::ConduitId> single = {3};
  const std::vector<core::ConduitId> multi = {7, 1, 5, 1};
  fastpath::CutImpact impact;
  // Cold pass sizes the cut bitmap, union-find and component arrays.
  ASSERT_TRUE(fastpath::fast_what_if_cut(soa, multi, h.scratch, impact));

  util::ZeroAllocGuard guard;
  for (int repeat = 0; repeat < 8; ++repeat) {
    ASSERT_TRUE(fastpath::fast_what_if_cut(soa, single, h.scratch, impact));
    ASSERT_TRUE(fastpath::fast_what_if_cut(soa, multi, h.scratch, impact));
  }
  const auto allocations = guard.allocations();
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(impact.connected_fraction_before, 0.0);
  EXPECT_LE(impact.connected_fraction_after, impact.connected_fraction_before);
}

TEST_F(ZeroAllocServe, KernelsMatchTheEngineHandlers) {
  // The zero-alloc kernels must answer exactly what the (string-bearing)
  // handlers answer; spot-check the what-if-cut numbers against the
  // snapshot-rebuild oracle used elsewhere in the suite.
  auto& h = harness();
  const auto& soa = h.snapshot->soa();
  const std::vector<core::ConduitId> cuts = {2, 9};
  fastpath::CutImpact impact;
  ASSERT_TRUE(fastpath::fast_what_if_cut(soa, cuts, h.scratch, impact));
  EXPECT_EQ(impact.conduits_cut, 2u);

  const auto cut_snap = Snapshot::with_conduits_cut(*h.snapshot, cuts);
  EXPECT_EQ(impact.links_severed, cut_snap->links_severed());
  // The cut world's own baseline connectivity is the kernel's "after"
  // (modulo node-set differences when a cut strands endpoints entirely —
  // both sides keep the uncut node set here, so they agree).
  EXPECT_EQ(impact.connected_fraction_before, soa.connected_fraction_before);

  // Out-of-range ids are refused, never partially applied.
  const std::vector<core::ConduitId> bad = {
      static_cast<core::ConduitId>(soa.conduit_a.size())};
  EXPECT_FALSE(fastpath::fast_what_if_cut(soa, bad, h.scratch, impact));
}

TEST_F(ZeroAllocServe, ShardedFastPathIsAllocationFreePerShard) {
  // The sharded design replicates the scratch per shard (each shard's
  // engine owns its own LeasePool).  The zero-alloc guarantee must hold
  // for EVERY replica, not just one: warm one scratch per simulated
  // shard, then drive all kernels through each replica under one guard.
  auto& h = harness();
  const auto& soa = h.snapshot->soa();
  constexpr std::size_t kShards = 3;
  std::vector<fastpath::RequestScratch> scratches(kShards);
  const std::vector<core::ConduitId> cuts = {1, 4};
  fastpath::CutImpact impact;
  for (auto& scratch : scratches) {
    scratch.warm(*h.snapshot);
    fastpath::fast_city_path(*h.snapshot, soa.conduit_a[0], soa.conduit_b[1], scratch);
    (void)fastpath::fast_hamming_neighbors(soa, 0, 3, scratch);
    ASSERT_TRUE(fastpath::fast_what_if_cut(soa, cuts, scratch, impact));
  }

  double sink = 0.0;
  util::ZeroAllocGuard guard;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    auto& scratch = scratches[shard];
    for (int repeat = 0; repeat < 4; ++repeat) {
      sink += fastpath::fast_shared_risk(soa, 0).mean_sharing;
      (void)fastpath::fast_top_conduits(soa, 5 + shard);
      fastpath::fast_city_path(*h.snapshot, soa.conduit_a[shard], soa.conduit_b[shard + 1],
                               scratch);
      (void)fastpath::fast_hamming_neighbors(
          soa, static_cast<std::uint32_t>(shard % soa.num_isps), 3, scratch);
      ASSERT_TRUE(fastpath::fast_what_if_cut(soa, cuts, scratch, impact));
    }
  }
  const auto allocations = guard.allocations();
  EXPECT_EQ(allocations, 0u) << "sharded steady state must be allocation-free per shard";
  EXPECT_GE(sink, 0.0);
}

TEST_F(ZeroAllocServe, ShardedHammerKeepsEveryShardPoolCapped) {
  // The pool-cap hammer at shards > 1: a burst of concurrent requests
  // through a worker-threaded fleet can never pin more idle scratch
  // objects than each shard's cap, and per-shard scratch creation is
  // bounded by that shard's worker concurrency — replication must not
  // multiply transient scratch beyond shards * workers.
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kThreadsPerShard = 2;
  ShardedEngine sharded({.shards = kShards, .threads_per_shard = kThreadsPerShard});
  sharded.publish(Snapshot::build(scenario_ptr()));
  const auto& profiles = testing::shared_scenario().truth().profiles();

  std::vector<std::future<Response>> futures;
  futures.reserve(400);
  for (std::size_t i = 0; i < 400; ++i) {
    switch (i % 4) {
      case 0:
        futures.push_back(sharded.submit(SharedRiskQuery{profiles[i % profiles.size()].name}));
        break;
      case 1:
        futures.push_back(sharded.submit(TopConduitsQuery{1 + i % 7}));
        break;
      case 2:
        futures.push_back(
            sharded.submit(WhatIfCutQuery{{static_cast<core::ConduitId>(i % 3)}}));
        break;
      default:
        futures.push_back(sharded.submit(HammingNeighborsQuery{
            profiles[(i / 4) % profiles.size()].name, 3}));
        break;
    }
  }
  for (auto& f : futures) {
    const auto response = f.get();
    EXPECT_TRUE(response.status == Status::Ok || response.status == Status::Overloaded)
        << response.error;
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    const Engine& engine = sharded.shard_engine(s);
    EXPECT_LE(engine.scratch_pool_idle(), engine.scratch_pool_cap());
    // Only this shard's workers ever lease from this shard's pool.
    EXPECT_LE(engine.scratch_created(), kThreadsPerShard + 1);
  }
}

TEST_F(ZeroAllocServe, ZeroAllocCascadeOverloadRoundBaseline) {
  // A measured baseline, not a guarantee: a cascade allocates its
  // per-call state (first-death rounds, capacities, loads, demand states,
  // the flat route buffers) and one reverse structural pass after the
  // last round.  Routes live in one flat edge buffer, so the count does
  // not grow with the number of re-routed demands.  The test fails the day the cascade goes
  // zero-alloc (flip the GT to EQ then), and the day the count grows
  // past the pinned ceiling.
  auto& h = harness();
  const auto targets = h.snapshot->matrix().most_shared_conduits(2);
  const std::vector<core::ConduitId> cuts(targets.begin(), targets.end());
  cascade::CascadeParams params;
  params.max_rounds = 1;  // exactly one overload round after the cut

  const auto& engine = h.snapshot->cascade_engine();
  (void)engine.run_cascade(cuts, params);  // warm pass (lazy sizing, if any)

  util::ZeroAllocGuard first_guard;
  (void)engine.run_cascade(cuts, params);
  const auto first = first_guard.allocations();

  util::ZeroAllocGuard second_guard;
  const auto outcome = engine.run_cascade(cuts, params);
  const auto second = second_guard.allocations();
  ASSERT_FALSE(outcome.rounds.empty());

  // The baseline, pinned three ways: it exists (not yet zero-alloc), it
  // is deterministic run-to-run (same world, same cuts), and it stays
  // within 4x of the measurement at pin time (53).
  EXPECT_GT(second, 0u) << "cascade rounds went zero-alloc — tighten this baseline to EQ 0";
  EXPECT_EQ(second, first) << "per-round allocation count must be deterministic";
  EXPECT_LE(second, 212u) << "cascade per-round allocations grew past the pinned ceiling";
  RecordProperty("cascade_allocs_per_round", static_cast<int>(second));
}

}  // namespace
}  // namespace intertubes::serve
