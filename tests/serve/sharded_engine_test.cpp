// ShardedEngine functional contract: hash routing is stable, every shard
// serves the same epoch after publish/apply, responses are bit-identical
// to a single engine for any shard count, and the combining views
// (metrics, cache stats, purge) aggregate across the fleet.
#include "serve/sharded.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "response_diff.hpp"
#include "test_support.hpp"

namespace intertubes::serve {
namespace {

std::shared_ptr<const core::Scenario> scenario_ptr() {
  return {std::shared_ptr<const core::Scenario>{}, &testing::shared_scenario()};
}

/// A mixed request script hitting every cheap handler plus one cascade and
/// one dissection, including NotFound/BadRequest paths.
std::vector<Request> mixed_script() {
  std::vector<Request> script;
  const auto& profiles = testing::shared_scenario().truth().profiles();
  for (std::size_t i = 0; i < std::min<std::size_t>(profiles.size(), 6); ++i) {
    script.push_back(SharedRiskQuery{profiles[i].name});
    script.push_back(HammingNeighborsQuery{profiles[i].name, 3});
  }
  script.push_back(TopConduitsQuery{5});
  script.push_back(TopConduitsQuery{0});
  script.push_back(WhatIfCutQuery{{0, 2}});
  script.push_back(WhatIfCutQuery{{1}});
  script.push_back(CityPathQuery{"San Francisco, CA", "New York, NY"});
  script.push_back(CityPathQuery{"Denver, CO", "Chicago, IL"});
  script.push_back(LatencyDissectionQuery{"Seattle, WA", "Miami, FL"});
  script.push_back(WhatIfCascadeQuery{{0}, 0.25, 4});
  script.push_back(SharedRiskQuery{"NoSuchISP"});
  script.push_back(WhatIfCutQuery{{}});
  return script;
}

DeltaBatch cut_batch(const Snapshot& snap, std::size_t which) {
  const auto targets = snap.matrix().most_shared_conduits(which + 1);
  DeltaBatch batch;
  batch.cut = {snap.map().conduit(targets[which]).corridor};
  return batch;
}

TEST(ServeSharded, RoutingIsStableAndCoversShards) {
  ShardedEngine sharded({.shards = 4});
  sharded.publish(Snapshot::build(scenario_ptr()));
  std::vector<bool> touched(4, false);
  for (const auto& request : mixed_script()) {
    const std::size_t shard = sharded.shard_of(request);
    ASSERT_LT(shard, 4u);
    touched[shard] = true;
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(sharded.shard_of(request), shard);
    }
  }
  // 25 distinct canonical keys over 4 shards: a router that collapses
  // everything onto one shard would defeat the design.
  std::size_t used = 0;
  for (const bool t : touched) used += t;
  EXPECT_GT(used, 1u);
}

TEST(ServeSharded, ResponsesMatchSingleEngineForAnyShardCount) {
  SnapshotStore single_store;
  sim::Executor serial(1);
  Engine single(single_store, serial);

  for (const std::size_t shards : {1u, 2u, 3u, 5u}) {
    ShardedEngine sharded({.shards = shards});
    sharded.publish(Snapshot::build(scenario_ptr()));
    // Serve the *same pointer* from the oracle so epochs agree:
    // install() adopts the stamp the sharded primary already applied.
    single_store.install(sharded.current());

    for (const auto& request : mixed_script()) {
      const auto mismatch =
          testing::response_mismatch(sharded.serve(request), single.serve(request));
      EXPECT_FALSE(mismatch.has_value())
          << "shards=" << shards << " key=" << canonical_key(request) << ": " << *mismatch;
    }
  }
}

TEST(ServeSharded, PublishInstallsOneEpochIntoEveryShard) {
  ShardedEngine sharded({.shards = 3});
  const auto e1 = sharded.publish(Snapshot::build(scenario_ptr()));
  // Every shard answers at the published epoch.
  for (const auto& request : mixed_script()) {
    EXPECT_EQ(sharded.serve(request).epoch, e1);
  }
  const auto e2 = sharded.publish(Snapshot::build(scenario_ptr()));
  EXPECT_GT(e2, e1);
  for (const auto& request : mixed_script()) {
    EXPECT_EQ(sharded.serve(request).epoch, e2);
  }
}

TEST(ServeSharded, ApplySwapsAllShardsToTheDeltaEpoch) {
  ShardedEngine sharded({.shards = 4});
  const auto e1 = sharded.publish(Snapshot::build(scenario_ptr()));
  const auto before = sharded.serve(TopConduitsQuery{8});
  ASSERT_EQ(before.status, Status::Ok);

  const auto e2 = sharded.apply(cut_batch(*sharded.current(), 0));
  EXPECT_EQ(e2, e1 + 1);
  EXPECT_EQ(sharded.epoch(), e2);
  EXPECT_EQ(sharded.deltas_applied(), 1u);
  for (const auto& request : mixed_script()) {
    EXPECT_EQ(sharded.serve(request).epoch, e2);
  }
  // The cut is visible in the served world: the most-shared conduit of
  // epoch 1 lost its corridor, so the top table changed.
  const auto after = sharded.serve(TopConduitsQuery{8});
  ASSERT_EQ(after.status, Status::Ok);
  EXPECT_TRUE(testing::response_mismatch(before, after).has_value());
}

TEST(ServeSharded, ApplyBeforePublishThrows) {
  ShardedEngine sharded({.shards = 2});
  EXPECT_THROW(sharded.apply(DeltaBatch{}), std::logic_error);
  EXPECT_EQ(sharded.serve(TopConduitsQuery{1}).status, Status::NoSnapshot);
}

TEST(ServeSharded, RejectedDeltaLeavesTheFleetServing) {
  ShardedEngine sharded({.shards = 2});
  const auto e1 = sharded.publish(Snapshot::build(scenario_ptr()));
  DeltaBatch bad;
  bad.repair = {sharded.current()->map().conduit(0).corridor};  // not cut
  EXPECT_THROW(sharded.apply(bad), std::invalid_argument);
  EXPECT_EQ(sharded.epoch(), e1);
  EXPECT_EQ(sharded.deltas_applied(), 0u);
  EXPECT_EQ(sharded.serve(TopConduitsQuery{3}).epoch, e1);
  // And the delta state is still usable: a valid batch goes through.
  EXPECT_EQ(sharded.apply(cut_batch(*sharded.current(), 0)), e1 + 1);
}

TEST(ServeSharded, MergedMetricsSumTheFleet) {
  ShardedEngine sharded({.shards = 3});
  sharded.publish(Snapshot::build(scenario_ptr()));
  const auto script = mixed_script();
  for (const auto& request : script) sharded.serve(request);

  std::uint64_t per_shard_sum = 0;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    per_shard_sum += sharded.shard_engine(s).metrics().total_served();
  }
  EXPECT_EQ(per_shard_sum, script.size());
  EXPECT_EQ(sharded.total_served(), script.size());
  EXPECT_EQ(sharded.total_shed(), 0u);

  MetricsRegistry merged;
  sharded.merge_metrics_into(merged);
  EXPECT_EQ(merged.total_served(), script.size());
  const auto top = sharded.merged_metrics_of(RequestType::TopConduits);
  EXPECT_EQ(top.count, 2u);  // the script's {5} and {0}
  EXPECT_FALSE(sharded.render_metrics().empty());
}

TEST(ServeSharded, CacheViewsCombineAndPurgeStaleDropsOldEpochs) {
  ShardedEngine sharded({.shards = 3});
  sharded.publish(Snapshot::build(scenario_ptr()));
  const auto script = mixed_script();
  for (const auto& request : script) sharded.serve(request);
  const auto cold = sharded.cache_stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_GT(sharded.cache_size(), 0u);
  for (const auto& request : script) sharded.serve(request);
  EXPECT_GT(sharded.cache_stats().hits, 0u);

  const auto stale = sharded.cache_size();
  sharded.apply(cut_batch(*sharded.current(), 0));
  // Everything cached belongs to the pre-delta epoch now.
  EXPECT_EQ(sharded.purge_stale_cache(), stale);
  EXPECT_EQ(sharded.cache_size(), 0u);

  for (const auto& request : script) sharded.serve(request);
  EXPECT_GT(sharded.cache_size(), 0u);
  // Nothing stale at the current epoch: purge is a no-op.
  EXPECT_EQ(sharded.purge_stale_cache(), 0u);
  sharded.clear_cache();
  EXPECT_EQ(sharded.cache_size(), 0u);
}

TEST(ServeSharded, WorkerModeMatchesInlineBodies) {
  ShardedEngine inline_fleet({.shards = 2});
  inline_fleet.publish(Snapshot::build(scenario_ptr()));
  ShardedEngine threaded({.shards = 2, .threads_per_shard = 2});
  threaded.publish(Snapshot::build(scenario_ptr()));
  // Same stamping order from a fresh store each ⇒ same epoch sequence.
  ASSERT_EQ(inline_fleet.epoch(), threaded.epoch());

  for (const auto& request : mixed_script()) {
    const auto mismatch =
        testing::response_mismatch(inline_fleet.serve(request), threaded.serve(request));
    EXPECT_FALSE(mismatch.has_value()) << canonical_key(request) << ": " << *mismatch;
  }
}

}  // namespace
}  // namespace intertubes::serve
