// The delta-equivalence guarantee: serve::LiveMap folding a DeltaBatch
// into epoch N must yield a snapshot byte-identical to a full rebuild of
// the mutated world — same golden philosophy as tests/golden (byte-for-
// byte artifacts), applied to the live-update path.  Equivalence is
// checked on the serialized dataset (every conduit, tenant, link) plus
// the derived SoA projections and sharing tables.
#include "serve/delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/dataset_io.hpp"
#include "test_support.hpp"

namespace intertubes::serve {
namespace {

std::shared_ptr<const core::Scenario> scenario_ptr() {
  return {std::shared_ptr<const core::Scenario>{}, &testing::shared_scenario()};
}

const std::shared_ptr<Snapshot>& base_snapshot() {
  static const std::shared_ptr<Snapshot> snap = Snapshot::build(scenario_ptr());
  return snap;
}

/// The byte-identity witness: the full serialized dataset of a snapshot's
/// map (nodes, conduits with tenancy/validation, links).
std::string bytes(const Snapshot& snap) {
  return core::serialize_dataset(snap.map(), snap.cities(), snap.row(),
                                 snap.truth().profiles());
}

void expect_identical(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(bytes(a), bytes(b));
  EXPECT_EQ(a.links_severed(), b.links_severed());
  EXPECT_EQ(a.sharing_table(), b.sharing_table());
  const auto& sa = a.soa();
  const auto& sb = b.soa();
  EXPECT_EQ(sa.usage_bits, sb.usage_bits);
  EXPECT_EQ(sa.conduits_by_tenancy, sb.conduits_by_tenancy);
  EXPECT_EQ(sa.conduit_km, sb.conduit_km);
  EXPECT_EQ(sa.link_conduits, sb.link_conduits);
  EXPECT_EQ(sa.connected_fraction_before, sb.connected_fraction_before);
}

/// Corridors of the two most-shared conduits — guaranteed tenanted, so
/// cutting them is observable in every derived artifact.
std::vector<transport::CorridorId> shared_corridors() {
  const auto& snap = *base_snapshot();
  const auto targets = snap.matrix().most_shared_conduits(2);
  return {snap.map().conduit(targets[0]).corridor, snap.map().conduit(targets[1]).corridor};
}

/// A corridor with no conduit in the base map (the "newly trenched" site
/// for add deltas).
transport::CorridorId free_corridor() {
  const auto& snap = *base_snapshot();
  for (const auto& corridor : snap.row().corridors()) {
    if (!snap.map().conduit_for_corridor(corridor.id).has_value()) return corridor.id;
  }
  ADD_FAILURE() << "scenario uses every corridor; no free one for add deltas";
  return transport::kNoCorridor;
}

TEST(ServeDelta, CutBatchMatchesWithConduitsCut) {
  // with_conduits_cut is a corridor-cut batch on this same path, so this
  // pins its conduit id → corridor translation (ids listed in reverse and
  // repeated); the full-rebuild test below and the O7 oracle are the
  // independent references.
  const auto& base = *base_snapshot();
  const auto targets = base.matrix().most_shared_conduits(2);
  const auto corridors = shared_corridors();

  LiveMap live(base_snapshot());
  DeltaBatch batch;
  batch.cut = corridors;
  const auto by_delta = live.apply(batch);
  const auto by_ids = Snapshot::with_conduits_cut(base, {targets[1], targets[0], targets[1]});
  ASSERT_GT(by_delta->links_severed(), 0u);
  expect_identical(*by_delta, *by_ids);
  EXPECT_EQ(by_ids->label(), base.label() + " - cut {" +
                                 std::to_string(std::min(targets[0], targets[1])) + "," +
                                 std::to_string(std::max(targets[0], targets[1])) + "}");
}

TEST(ServeDelta, SequentialAndMergedBatchesAreByteIdentical) {
  const auto corridors = shared_corridors();
  const auto fresh = free_corridor();
  ASSERT_NE(fresh, transport::kNoCorridor);

  DeltaBatch first;
  first.cut = {corridors[0]};
  DeltaBatch second;
  second.add = {{fresh, {1, 0, 1}, true}};  // duplicate tenant: deduplicated
  second.tenant_adds = {{corridors[1], 2}};
  DeltaBatch third;
  third.repair = {corridors[0]};

  LiveMap sequential(base_snapshot());
  sequential.apply(first);
  sequential.apply(second);
  const auto one_at_a_time = sequential.apply(third);
  EXPECT_EQ(sequential.batches_applied(), 3u);

  DeltaBatch merged;
  merged.cut = first.cut;
  merged.repair = third.repair;
  merged.add = second.add;
  merged.tenant_adds = second.tenant_adds;
  LiveMap all_at_once(base_snapshot());
  const auto in_one_batch = all_at_once.apply(merged);

  expect_identical(*one_at_a_time, *in_one_batch);
}

TEST(ServeDelta, DeltaEqualsFullRebuildOfTheMutatedScenario) {
  // The oracle side rebuilds the mutated world from scratch, straight off
  // the base map — no LiveMap machinery shared with the subject.
  const auto& base = *base_snapshot();
  const auto corridors = shared_corridors();
  const auto fresh = free_corridor();
  ASSERT_NE(fresh, transport::kNoCorridor);

  DeltaBatch batch;
  batch.cut = {corridors[0]};
  batch.add = {{fresh, {0, 3}, false}};
  batch.tenant_adds = {{corridors[1], 4}};
  LiveMap live(base_snapshot());
  const auto by_delta = live.apply(batch);

  const auto& old_map = base.map();
  const auto& row = base.row();
  core::FiberMap expected(old_map.num_isps());
  std::size_t severed = 0;
  for (const auto& conduit : old_map.conduits()) {
    if (conduit.corridor == corridors[0]) continue;
    const auto nid = expected.ensure_conduit(row.corridor(conduit.corridor), conduit.provenance);
    for (const isp::IspId tenant : conduit.tenants) expected.add_tenant(nid, tenant);
    if (conduit.validated) expected.mark_validated(nid);
  }
  const auto added = expected.ensure_conduit(row.corridor(fresh), core::Provenance::PublicRecords);
  expected.add_tenant(added, 0);
  expected.add_tenant(added, 3);
  expected.add_tenant(*expected.conduit_for_corridor(corridors[1]), 4);
  for (const auto& link : old_map.links()) {
    std::vector<core::ConduitId> remapped;
    bool dead = false;
    for (const core::ConduitId cid : link.conduits) {
      const auto corridor = old_map.conduit(cid).corridor;
      if (corridor == corridors[0]) {
        dead = true;
        break;
      }
      remapped.push_back(*expected.conduit_for_corridor(corridor));
    }
    if (dead) {
      ++severed;
      continue;
    }
    expected.add_link(link.isp, link.a, link.b, remapped, link.geocoded);
  }
  const auto by_rebuild = Snapshot::with_map(base, std::move(expected), "oracle", severed);

  expect_identical(*by_delta, *by_rebuild);
}

TEST(ServeDelta, CutThenRepairRestoresTheBaseWorldExactly) {
  const auto& base = *base_snapshot();
  const auto corridors = shared_corridors();

  LiveMap live(base_snapshot());
  DeltaBatch cut;
  cut.cut = corridors;
  const auto severed = live.apply(cut);
  EXPECT_GT(severed->links_severed(), 0u);
  EXPECT_EQ(live.cut_corridors(), 2u);

  DeltaBatch repair;
  repair.repair = corridors;
  const auto restored = live.apply(repair);
  EXPECT_EQ(live.cut_corridors(), 0u);
  EXPECT_EQ(restored->links_severed(), 0u);
  EXPECT_EQ(bytes(*restored), bytes(base));
  EXPECT_EQ(restored->sharing_table(), base.sharing_table());
}

TEST(ServeDelta, RejectedBatchesAreStrictNoOps) {
  const auto corridors = shared_corridors();
  const auto fresh = free_corridor();
  const auto num_corridors =
      static_cast<transport::CorridorId>(base_snapshot()->row().corridors().size());

  LiveMap live(base_snapshot());
  const auto attempt = [&live](DeltaBatch batch) {
    EXPECT_THROW(live.apply(batch), std::invalid_argument);
  };
  {
    DeltaBatch b;  // cut of a corridor with no conduit
    b.cut = {fresh};
    attempt(b);
  }
  {
    DeltaBatch b;  // double cut inside one batch
    b.cut = {corridors[0], corridors[0]};
    attempt(b);
  }
  {
    DeltaBatch b;  // repair of an uncut corridor
    b.repair = {corridors[0]};
    attempt(b);
  }
  {
    DeltaBatch b;  // add onto an occupied corridor
    b.add = {{corridors[0], {0}, false}};
    attempt(b);
  }
  {
    DeltaBatch b;  // add on a corridor the registry doesn't know
    b.add = {{num_corridors, {0}, false}};
    attempt(b);
  }
  {
    DeltaBatch b;  // out-of-range tenant on a new conduit
    b.add = {{fresh, {static_cast<isp::IspId>(base_snapshot()->map().num_isps())}, false}};
    attempt(b);
  }
  {
    DeltaBatch b;  // tenant change on a dead corridor
    b.tenant_adds = {{fresh, 0}};
    attempt(b);
  }

  // Every rejection left the cumulative state untouched: an empty batch
  // still rebuilds the pristine base.
  EXPECT_EQ(live.cut_corridors(), 0u);
  EXPECT_EQ(live.added_conduits(), 0u);
  const auto rebuilt = live.apply(DeltaBatch{});
  EXPECT_EQ(bytes(*rebuilt), bytes(*base_snapshot()));
}

TEST(ServeDelta, CutSequencesInsideOneBatchCompose) {
  // cut → repair of the same corridor in one batch is legal and nets out;
  // cutting a conduit added by an earlier batch removes it entirely.
  const auto corridors = shared_corridors();
  const auto fresh = free_corridor();

  LiveMap live(base_snapshot());
  DeltaBatch churn;
  churn.cut = {corridors[0]};
  churn.repair = {corridors[0]};
  const auto netted = live.apply(churn);
  EXPECT_EQ(bytes(*netted), bytes(*base_snapshot()));

  DeltaBatch add;
  add.add = {{fresh, {0, 1}, false}};
  live.apply(add);
  EXPECT_EQ(live.added_conduits(), 1u);
  DeltaBatch unbuild;
  unbuild.cut = {fresh};
  const auto removed = live.apply(unbuild);
  EXPECT_EQ(live.added_conduits(), 0u);
  EXPECT_EQ(bytes(*removed), bytes(*base_snapshot()));
}

TEST(ServeDelta, AddedConduitsShowUpInDerivedArtifacts) {
  const auto& base = *base_snapshot();
  const auto fresh = free_corridor();

  LiveMap live(base_snapshot());
  DeltaBatch batch;
  batch.add = {{fresh, {0, 1, 2}, true}};
  const auto next = live.apply(batch);

  ASSERT_EQ(next->map().conduits().size(), base.map().conduits().size() + 1);
  const auto nid = next->map().conduit_for_corridor(fresh);
  ASSERT_TRUE(nid.has_value());
  const auto& conduit = next->map().conduit(*nid);
  EXPECT_EQ(conduit.tenants, (std::vector<isp::IspId>{0, 1, 2}));
  EXPECT_TRUE(conduit.validated);
  EXPECT_EQ(next->soa().conduit_tenants[*nid], 3u);
  // A 3-tenant conduit moves the >=3 bucket ([k-1] indexing) of the
  // Fig. 6 sharing table.
  EXPECT_EQ(next->sharing_table()[2], base.sharing_table()[2] + 1);
}

}  // namespace
}  // namespace intertubes::serve
