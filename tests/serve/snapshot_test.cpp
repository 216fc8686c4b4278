#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "isp/profiles.hpp"
#include "test_support.hpp"
#include "worldgen/worldgen.hpp"

namespace intertubes::serve {
namespace {

std::shared_ptr<const core::Scenario> scenario_ptr() {
  // Non-owning alias of the suite-wide scenario (it outlives every test).
  return {std::shared_ptr<const core::Scenario>{}, &testing::shared_scenario()};
}

const std::shared_ptr<Snapshot>& base_snapshot() {
  static const std::shared_ptr<Snapshot> snap = Snapshot::build(scenario_ptr());
  return snap;
}

TEST(ServeSnapshot, BuildDerivesArtifactsFromScenario) {
  const auto& snap = base_snapshot();
  const auto& scenario = testing::shared_scenario();
  EXPECT_EQ(snap->map().conduits().size(), scenario.map().conduits().size());
  EXPECT_EQ(snap->map().links().size(), scenario.map().links().size());
  EXPECT_EQ(snap->matrix().num_conduits(), scenario.map().conduits().size());
  EXPECT_EQ(snap->matrix().num_isps(), scenario.map().num_isps());
  EXPECT_EQ(snap->soa().risk_by_isp.size(), scenario.map().num_isps());
  EXPECT_FALSE(snap->sharing_table().empty());
  // Every conduit has >= 1 tenant, so the k=1 sharing count is all of them.
  EXPECT_EQ(snap->sharing_table()[0], snap->map().conduits().size());
  EXPECT_EQ(snap->overlay(), nullptr);  // overlay_probes defaults to 0
  EXPECT_EQ(snap->links_severed(), 0u);
  EXPECT_EQ(snap->epoch(), 0u);  // not published yet
}

TEST(ServeSnapshot, BuildWithOverlayProbes) {
  SnapshotOptions options;
  options.overlay_probes = 2000;
  options.label = "with overlay";
  const auto snap = Snapshot::build(scenario_ptr(), options);
  ASSERT_NE(snap->overlay(), nullptr);
  EXPECT_EQ(snap->overlay()->usage.size(), snap->map().conduits().size());
  EXPECT_EQ(snap->label(), "with overlay");
}

TEST(ServeSnapshot, OverlayOnMultiContinentWorldUsesTheWorldsProfiles) {
  // A scale-2 world has more ISPs than the twenty default profiles, so the
  // overlay campaign must name and decode its hops with the world's own.
  worldgen::WorldSpec spec;
  spec.scale = 2.0;
  const auto world = worldgen::generate_world(spec);
  ASSERT_GT(world.truth().profiles().size(), isp::default_profiles().size());
  SnapshotOptions options;
  options.overlay_probes = 1000;
  const auto snap = Snapshot::build(world.view(), options);
  ASSERT_NE(snap->overlay(), nullptr);
  EXPECT_EQ(snap->overlay()->usage.size(), snap->map().conduits().size());
  EXPECT_GT(snap->overlay()->mapped_segments, 0u);
}

TEST(ServeSnapshot, PublishAssignsStrictlyIncreasingEpochs) {
  SnapshotStore store;
  EXPECT_EQ(store.current(), nullptr);
  EXPECT_EQ(store.epoch(), 0u);
  const auto first = Snapshot::build(scenario_ptr());
  const auto e1 = store.publish(first);
  EXPECT_GT(e1, 0u);
  EXPECT_EQ(store.epoch(), e1);
  EXPECT_EQ(store.current().get(), first.get());
  const auto second = Snapshot::build(scenario_ptr());
  const auto e2 = store.publish(second);
  EXPECT_GT(e2, e1);
  EXPECT_EQ(store.current().get(), second.get());
  // The replaced snapshot stays valid for holders of the old pointer.
  EXPECT_EQ(first->epoch(), e1);
  EXPECT_FALSE(first->soa().risk_by_isp.empty());
}

TEST(ServeSnapshot, WhatIfCutSeversExactlyTheAffectedLinks) {
  const auto& base = *base_snapshot();
  // Cut the single most shared conduit — guaranteed to carry links.
  const auto cuts = base.matrix().most_shared_conduits(1);
  ASSERT_EQ(cuts.size(), 1u);
  std::size_t expect_severed = 0;
  for (const auto& link : base.map().links()) {
    for (core::ConduitId cid : link.conduits) {
      if (cid == cuts[0]) {
        ++expect_severed;
        break;
      }
    }
  }
  ASSERT_GT(expect_severed, 0u);

  const auto cut = Snapshot::with_conduits_cut(base, {cuts[0], cuts[0]});  // dupes collapse
  EXPECT_EQ(cut->map().conduits().size(), base.map().conduits().size() - 1);
  EXPECT_EQ(cut->links_severed(), expect_severed);
  EXPECT_EQ(cut->map().links().size(), base.map().links().size() - expect_severed);
  EXPECT_EQ(cut->matrix().num_conduits(), cut->map().conduits().size());
  EXPECT_NE(cut->label().find("cut {"), std::string::npos);
  // Base world shares the backing world and is untouched.
  EXPECT_EQ(cut->world().owner, base.world().owner);
  EXPECT_EQ(&cut->truth(), &base.truth());
  EXPECT_EQ(base.map().conduits().size(), testing::shared_scenario().map().conduits().size());
}

TEST(ServeSnapshot, WhatIfCutPreservesTenancyByCorridor) {
  const auto& base = *base_snapshot();
  const auto cuts = base.matrix().most_shared_conduits(1);
  const auto cut = Snapshot::with_conduits_cut(base, {cuts[0]});
  std::size_t checked = 0;
  for (const auto& old_conduit : base.map().conduits()) {
    if (old_conduit.id == cuts[0]) continue;
    const auto nid = cut->map().conduit_for_corridor(old_conduit.corridor);
    ASSERT_TRUE(nid.has_value());
    const auto& fresh = cut->map().conduit(*nid);
    EXPECT_EQ(fresh.tenants, old_conduit.tenants);
    EXPECT_EQ(fresh.validated, old_conduit.validated);
    EXPECT_EQ(fresh.length_km, old_conduit.length_km);
    ++checked;
  }
  EXPECT_EQ(checked, cut->map().conduits().size());
}

TEST(ServeSnapshot, WhatIfCutRejectsOutOfRangeIds) {
  const auto& base = *base_snapshot();
  const auto huge = static_cast<core::ConduitId>(base.map().conduits().size());
  EXPECT_THROW(Snapshot::with_conduits_cut(base, {huge}), std::logic_error);
}

// The RCU swap contract: readers loading current() and querying it while
// another thread publishes replacement snapshots must never observe a
// torn or destroyed world.  Run under -DINTERTUBES_TSAN=ON this is the
// serve-path data-race certification.
TEST(ServeSnapshot, SwapUnderConcurrentReadersIsSafe) {
  SnapshotStore store;
  store.publish(Snapshot::build(scenario_ptr()));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&store, &stop, &reads] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = store.current();
        ASSERT_NE(snap, nullptr);
        // Touch the artifacts a real query touches.
        const auto& risk_rows = snap->soa().risk_by_isp;
        ASSERT_FALSE(risk_rows.empty());
        const auto& first_city = snap->map().conduits().front().a;
        ASSERT_FALSE(snap->map().conduits_at(first_city).empty());
        ASSERT_GT(snap->matrix().num_conduits(), 0u);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Publish a stream of what-if worlds (and the base again) underneath.
  const auto& base = *base_snapshot();
  const auto targets = base.matrix().most_shared_conduits(6);
  for (int round = 0; round < 12; ++round) {
    const auto cut_id = targets[static_cast<std::size_t>(round) % targets.size()];
    store.publish(Snapshot::with_conduits_cut(base, {cut_id}));
  }
  store.publish(Snapshot::build(scenario_ptr()));
  // Let readers chew on the final snapshot a little before stopping.
  while (reads.load(std::memory_order_relaxed) < 100) std::this_thread::yield();
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_GE(reads.load(), 100u);
}

}  // namespace
}  // namespace intertubes::serve
