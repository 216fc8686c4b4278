#include "risk/cuts.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace intertubes::risk {
namespace {

using core::ConduitId;
using core::FiberMap;
using core::Provenance;
// Hand-built fixtures come from prop/generators (via test_support.hpp) —
// the single source of truth for test-world construction.
using prop::barbell_map;
using prop::make_corridor;

/// Path 0-1-2 plus a cycle 2-3-4-2: conduits (0,1) and (1,2) are bridges;
/// the cycle edges are not.
FiberMap barbell() { return barbell_map(); }

TEST(BridgeConduits, BarbellBridges) {
  const auto map = barbell();
  const auto bridges = bridge_conduits(map);
  EXPECT_EQ(bridges, (std::vector<ConduitId>{0, 1}));
}

TEST(BridgeConduits, ParallelConduitsAreNotBridges) {
  FiberMap map(2);
  const ConduitId c1 = map.ensure_conduit(make_corridor(0, 0, 1), Provenance::GeocodedMap);
  const ConduitId c2 = map.ensure_conduit(make_corridor(1, 0, 1), Provenance::GeocodedMap);
  map.add_link(0, 0, 1, {c1}, true);
  map.add_link(1, 0, 1, {c2}, true);
  EXPECT_TRUE(bridge_conduits(map).empty());
}

TEST(BridgeConduits, SingleConduitIsBridge) {
  FiberMap map(1);
  const ConduitId only = map.ensure_conduit(make_corridor(0, 0, 1), Provenance::GeocodedMap);
  map.add_link(0, 0, 1, {only}, true);
  EXPECT_EQ(bridge_conduits(map), (std::vector<ConduitId>{only}));
}

TEST(MinConduitCut, ParallelEdgesCountSeparately) {
  FiberMap map(2);
  const ConduitId c1 = map.ensure_conduit(make_corridor(0, 0, 1), Provenance::GeocodedMap);
  const ConduitId c2 = map.ensure_conduit(make_corridor(1, 0, 1), Provenance::GeocodedMap);
  map.add_link(0, 0, 1, {c1}, true);
  map.add_link(1, 0, 1, {c2}, true);
  EXPECT_EQ(min_conduit_cut(map, 0, 1), 2u);
}

TEST(MinConduitCut, BarbellEndpoints) {
  const auto map = barbell();
  // 0 to 4: the chain 0-1-2 bottlenecks at 1 conduit.
  EXPECT_EQ(min_conduit_cut(map, 0, 4), 1u);
  // 3 to 2 around the ring: two disjoint ways.
  EXPECT_EQ(min_conduit_cut(map, 3, 2), 2u);
}

TEST(MinConduitCut, MatchesBridgeSemantics) {
  // If s–t min cut is 1, removing the right single conduit must
  // disconnect them, i.e. some bridge lies between them.
  const auto map = barbell();
  EXPECT_EQ(min_conduit_cut(map, 0, 2), 1u);
  const auto bridges = bridge_conduits(map);
  EXPECT_FALSE(bridges.empty());
}

TEST(MinConduitCut, RejectsNonNodes) {
  const auto map = barbell();
  EXPECT_THROW(min_conduit_cut(map, 0, 99), std::logic_error);
}

}  // namespace
}  // namespace intertubes::risk
