#include "util/connectivity.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/alloc.hpp"

namespace intertubes {
namespace {

using Edge = std::pair<std::uint32_t, std::uint32_t>;

Connectivity united(std::size_t n, const std::vector<Edge>& edges) {
  Connectivity sets(n);
  for (const auto& [u, v] : edges) sets.unite(u, v);
  return sets;
}

TEST(ConnectivityKernel, EmptyAndSingleNodeGraphs) {
  const Connectivity empty(0);
  EXPECT_EQ(empty.num_nodes(), 0u);
  EXPECT_EQ(empty.components(), 0u);
  EXPECT_EQ(empty.connected_pairs(), 0u);
  EXPECT_EQ(empty.largest(), 0u);
  EXPECT_EQ(empty.pair_fraction(), 1.0);

  Connectivity one(1);
  EXPECT_FALSE(one.unite(0, 0));  // a self-loop joins nothing
  EXPECT_EQ(one.components(), 1u);
  EXPECT_EQ(one.connected_pairs(), 0u);
  EXPECT_EQ(one.largest(), 1u);
  EXPECT_EQ(one.pair_fraction(), 1.0);
}

TEST(ConnectivityKernel, CountsOnHandBuiltGraphs) {
  // Two triangles joined by nothing, a parallel edge, and an isolated node:
  // components {0,1,2}, {3,4,5}, {6}.
  auto sets = united(7, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 3}, {4, 5}});
  EXPECT_EQ(sets.components(), 3u);
  EXPECT_EQ(sets.connected_pairs(), 6u);  // 3 + 3
  EXPECT_EQ(sets.largest(), 3u);
  EXPECT_EQ(sets.pair_fraction(), 6.0 / 21.0);
  EXPECT_EQ(sets.find(2), sets.find(0));
  EXPECT_NE(sets.find(3), sets.find(0));

  // Joining the triangles: 6 nodes in one component, 15 pairs.
  EXPECT_TRUE(sets.unite(2, 5));
  EXPECT_FALSE(sets.unite(0, 3));
  EXPECT_EQ(sets.components(), 2u);
  EXPECT_EQ(sets.connected_pairs(), 15u);
  EXPECT_EQ(sets.largest(), 6u);

  // A path over every node: everything connected.
  const auto path = united(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(path.components(), 1u);
  EXPECT_EQ(path.connected_pairs(), 10u);
  EXPECT_EQ(path.pair_fraction(), 1.0);
}

TEST(ConnectivityKernel, ReadsEveryStepInReverse) {
  // A 4-cycle 0-1-2-3 plus a pendant 4 on node 0 and an isolated node 5.
  const std::vector<Edge> ends = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}};
  // Edge 4 never dies; edges 0 and 2 die at step 1, edge 1 at step 2,
  // edge 3 at step 0 (already dead at the first step read).
  const std::vector<std::uint32_t> first_death = {1, 2, 1, 0, kNeverDies};
  std::vector<std::size_t> components(3, 0);
  std::vector<std::size_t> largest(3, 0);
  std::vector<std::size_t> order;
  Connectivity sets;
  sets.read_steps_in_reverse(
      6, first_death, 2, [&ends](std::uint32_t e) { return ends[e]; },
      [&](std::size_t step, const Connectivity& graph) {
        order.push_back(step);
        components[step] = graph.components();
        largest[step] = graph.largest();
      });
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 1, 0}));
  // Step 0: edges 0, 1, 2, 4 alive → {0,1,2,3,4}, {5}.
  EXPECT_EQ(components[0], 2u);
  EXPECT_EQ(largest[0], 5u);
  // Step 1: edges 1, 4 alive → {0,4}, {1,2}, {3}, {5}.
  EXPECT_EQ(components[1], 4u);
  EXPECT_EQ(largest[1], 2u);
  // Step 2: edge 4 alone → {0,4}, {1}, {2}, {3}, {5}.
  EXPECT_EQ(components[2], 5u);
  EXPECT_EQ(largest[2], 2u);
}

TEST(ConnectivityKernel, ResetDoesNotAllocate) {
  Connectivity sets(64);
  sets.unite(0, 63);
  util::ZeroAllocGuard guard;
  sets.reset(64);
  sets.unite(1, 2);
  sets.reset(17);
  sets.unite(3, 4);
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_EQ(sets.components(), 16u);
  EXPECT_EQ(sets.connected_pairs(), 1u);
}

}  // namespace
}  // namespace intertubes
