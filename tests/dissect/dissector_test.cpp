// The all-pairs latency dissection: decomposition identities, ordering
// invariants, sweep-vs-point-query agreement, exact aggregates, and the
// serial-vs-parallel bit-identity of the batched sweep — on the canonical
// world, on a hand-built world with fiber and ROW islands, and on a
// generated world whose conduit engine misses a tenth of the conduits.
#include "dissect/dissector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "geo/latency.hpp"
#include "sim/executor.hpp"
#include "test_support.hpp"
#include "transport/network.hpp"
#include "worldgen/worldgen.hpp"

namespace intertubes::dissect {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

bool same_bits(const PairDissection& x, const PairDissection& y) {
  return x.a == y.a && x.b == y.b && bits(x.clat_ms) == bits(y.clat_ms) &&
         bits(x.los_ms) == bits(y.los_ms) && bits(x.row_ms) == bits(y.row_ms) &&
         bits(x.fiber_ms) == bits(y.fiber_ms) && bits(x.refraction_ms) == bits(y.refraction_ms) &&
         bits(x.row_inflation_ms) == bits(y.row_inflation_ms) &&
         bits(x.detour_ms) == bits(y.detour_ms) && bits(x.stretch) == bits(y.stretch) &&
         bits(x.achievable_ms) == bits(y.achievable_ms) &&
         x.fiber_reachable == y.fiber_reachable && x.row_reachable == y.row_reachable;
}

/// Every field of every pair, and every counter and aggregate, bit for bit.
void expect_bit_identical(const DissectionStudy& expected, const DissectionStudy& got,
                          const std::string& label) {
  EXPECT_EQ(got.nodes, expected.nodes) << label;
  ASSERT_EQ(got.pairs.size(), expected.pairs.size()) << label;
  for (std::size_t i = 0; i < got.pairs.size(); ++i) {
    if (!same_bits(got.pairs[i], expected.pairs[i])) {
      ADD_FAILURE() << label << ": pair " << i << " (" << expected.pairs[i].a << ", "
                    << expected.pairs[i].b << ") differs";
      break;
    }
  }
  EXPECT_EQ(got.fiber_unreachable, expected.fiber_unreachable) << label;
  EXPECT_EQ(got.row_unreachable, expected.row_unreachable) << label;
  EXPECT_EQ(got.within_target, expected.within_target) << label;
  EXPECT_EQ(bits(got.target_factor), bits(expected.target_factor)) << label;
  EXPECT_EQ(bits(got.median_stretch), bits(expected.median_stretch)) << label;
  EXPECT_EQ(bits(got.p95_stretch), bits(expected.p95_stretch)) << label;
  EXPECT_EQ(bits(got.total_achievable_ms), bits(expected.total_achievable_ms)) << label;
}

/// The serial study against parallel sweeps at 1, 2 and 4 threads.
void expect_thread_count_invariant(const LatencyDissector& dissector,
                                   const DissectionStudy& serial) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    sim::Executor executor(threads);
    expect_bit_identical(serial, dissector.dissect(&executor),
                         std::to_string(threads) + " threads");
  }
}

/// The counters recounted from the pairs, total_achievable_ms against a
/// serial (i, j) fold, and both percentiles against the nearest-rank
/// elements of a sorted copy of the fiber-reachable stretches — all exact.
void expect_exact_aggregates(const DissectionStudy& study) {
  std::size_t fiber_unreachable = 0;
  std::size_t row_unreachable = 0;
  std::size_t within_target = 0;
  double total_achievable_ms = 0.0;
  std::vector<double> stretches;
  for (const auto& p : study.pairs) {
    if (!p.fiber_reachable) {
      ++fiber_unreachable;
    } else {
      stretches.push_back(p.stretch);
      if (p.fiber_ms <= study.target_factor * p.clat_ms) ++within_target;
      if (p.row_reachable) total_achievable_ms += p.achievable_ms;
    }
    if (!p.row_reachable) ++row_unreachable;
  }
  EXPECT_EQ(study.fiber_unreachable, fiber_unreachable);
  EXPECT_EQ(study.row_unreachable, row_unreachable);
  EXPECT_EQ(study.within_target, within_target);
  EXPECT_EQ(bits(study.total_achievable_ms), bits(total_achievable_ms));
  ASSERT_FALSE(stretches.empty());
  std::sort(stretches.begin(), stretches.end());
  const auto nearest_rank = [&](double p) {
    return stretches[std::min(stretches.size() - 1,
                              static_cast<std::size_t>(
                                  p * static_cast<double>(stretches.size() - 1) + 0.5))];
  };
  EXPECT_EQ(bits(study.median_stretch), bits(nearest_rank(0.5)));
  EXPECT_EQ(bits(study.p95_stretch), bits(nearest_rank(0.95)));
}

const LatencyDissector& dissector() {
  static const LatencyDissector d(testing::shared_scenario().map(), core::Scenario::cities(),
                                  testing::shared_scenario().row());
  return d;
}

/// The serial study, shared across tests (the sweep is the expensive part).
const DissectionStudy& study() {
  static const DissectionStudy s = dissector().dissect();
  return s;
}

TEST(DissectStudy, PairListCoversAllUnorderedPairs) {
  const std::size_t n = dissector().nodes().size();
  ASSERT_GE(n, 2u);
  EXPECT_EQ(study().pairs.size(), n * (n - 1) / 2);
  // (i, j > i) row-major order, endpoints ascending within each pair.
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++idx) {
      EXPECT_EQ(study().pairs[idx].a, dissector().nodes()[i]);
      EXPECT_EQ(study().pairs[idx].b, dissector().nodes()[j]);
    }
  }
}

TEST(DissectStudy, ComponentsSumToFiberDelay) {
  // clat + refraction + ROW inflation + detour == fiber, and the stacked
  // bounds hold: clat <= los <= row <= fiber.
  std::size_t both = 0;
  for (const auto& p : study().pairs) {
    EXPECT_GT(p.clat_ms, 0.0);
    EXPECT_LE(p.clat_ms, p.los_ms);
    EXPECT_LE(p.los_ms, p.row_ms + 1e-9);
    if (!p.fiber_reachable || !p.row_reachable) continue;
    ++both;
    EXPECT_LE(p.row_ms, p.fiber_ms + 1e-9);
    EXPECT_NEAR(p.clat_ms + p.refraction_ms + p.row_inflation_ms + p.detour_ms, p.fiber_ms,
                1e-9);
    EXPECT_NEAR(p.achievable_ms, std::max(0.0, p.detour_ms), 1e-12);
    EXPECT_NEAR(p.stretch, p.fiber_ms / p.clat_ms, 1e-12);
    EXPECT_GE(p.stretch, 1.0);
  }
  EXPECT_GT(both, 0u);
}

TEST(DissectStudy, UnreachablePairsCarryInfinityNotAliases) {
  // The Figure 12 lesson: an unreachable pair must read as +inf, never as
  // a copy of some other series.
  std::size_t fiber_unreachable = 0;
  std::size_t row_unreachable = 0;
  for (const auto& p : study().pairs) {
    if (!p.fiber_reachable) {
      ++fiber_unreachable;
      EXPECT_TRUE(std::isinf(p.fiber_ms));
      EXPECT_TRUE(std::isinf(p.stretch));
    }
    if (!p.row_reachable) {
      ++row_unreachable;
      EXPECT_TRUE(std::isinf(p.row_ms));
    }
  }
  EXPECT_EQ(fiber_unreachable, study().fiber_unreachable);
  EXPECT_EQ(row_unreachable, study().row_unreachable);
}

TEST(DissectStudy, AggregatesConsistent) {
  const std::size_t reachable = study().pairs.size() - study().fiber_unreachable;
  EXPECT_LE(study().within_target, reachable);
  EXPECT_GE(study().median_stretch, 1.0);
  EXPECT_LE(study().median_stretch, study().p95_stretch);
  EXPECT_GE(study().total_achievable_ms, 0.0);
  expect_exact_aggregates(study());
}

/// Seven cities: fiber islands {0, 1, 2, 3, 6} and {4, 5}, ROW islands
/// {0, 1, 2} and {3, 4, 5}, and city 6 alone on the ROW graph.  City 6
/// sits on city 0, so their pair has a zero great-circle and a +inf
/// stretch despite a fiber path.
struct IslandWorld {
  static transport::City city(int i) {
    transport::City c;
    c.name = "C" + std::to_string(i);
    c.state = "XX";
    c.location = i == 6 ? geo::GeoPoint{35.0, -100.0} : geo::GeoPoint{35.0 + i, -100.0 + i};
    c.population = 100000;
    return c;
  }
  static std::vector<transport::City> all_cities() {
    std::vector<transport::City> out;
    for (int i = 0; i < 7; ++i) out.push_back(city(i));
    return out;
  }
  static transport::TransportEdge road(transport::EdgeId id, transport::CityId a,
                                       transport::CityId b) {
    transport::TransportEdge e;
    e.id = id;
    e.a = a;
    e.b = b;
    e.mode = transport::TransportMode::Road;
    e.path = geo::Polyline::straight(city(static_cast<int>(a)).location,
                                     city(static_cast<int>(b)).location);
    e.length_km = e.path.length_km();
    return e;
  }
  static core::FiberMap fiber() {
    core::FiberMap map(1);
    map.ensure_conduit(prop::make_corridor(10, 0, 1, 200.0), core::Provenance::GeocodedMap);
    map.ensure_conduit(prop::make_corridor(11, 1, 2, 210.0), core::Provenance::GeocodedMap);
    map.ensure_conduit(prop::make_corridor(12, 2, 3, 220.0), core::Provenance::GeocodedMap);
    map.ensure_conduit(prop::make_corridor(13, 4, 5, 230.0), core::Provenance::GeocodedMap);
    map.ensure_conduit(prop::make_corridor(14, 0, 6, 1.0), core::Provenance::GeocodedMap);
    return map;
  }

  transport::CityDatabase cities{all_cities()};
  transport::TransportBundle bundle{
      transport::TransportNetwork(transport::TransportMode::Road,
                                  {road(0, 0, 1), road(1, 1, 2), road(2, 3, 4), road(3, 4, 5)},
                                  7),
      transport::TransportNetwork(transport::TransportMode::Rail, {}, 7),
      transport::TransportNetwork(transport::TransportMode::Pipeline, {}, 7)};
  transport::RightOfWayRegistry row{bundle};
  core::FiberMap map = fiber();
  LatencyDissector dissector{map, cities, row};
};

TEST(DissectStudy, IslandWorldCountsUnreachablePairsExactly) {
  const IslandWorld world;
  const auto study = world.dissector.dissect();
  ASSERT_EQ(study.nodes.size(), 7u);
  ASSERT_EQ(study.pairs.size(), 21u);
  // Fiber: {0,1,2,3,6} x {4,5} = 10 pairs.  ROW: {0,1,2} x {3,4,5}, plus
  // 6 against the other six = 15 pairs.
  EXPECT_EQ(study.fiber_unreachable, 10u);
  EXPECT_EQ(study.row_unreachable, 15u);
  for (const auto& p : study.pairs) {
    if (p.a == 0 && p.b == 6) {
      EXPECT_TRUE(p.fiber_reachable);
      EXPECT_EQ(p.clat_ms, 0.0);
      EXPECT_TRUE(std::isinf(p.stretch));
    }
    if (!p.fiber_reachable || !p.row_reachable) {
      EXPECT_EQ(p.achievable_ms, 0.0);
    }
  }
  EXPECT_TRUE(std::isinf(study.p95_stretch) || study.p95_stretch >= study.median_stretch);
  expect_exact_aggregates(study);
}

TEST(DissectStudy, SweepIsBitIdenticalAtAnyThreadCount) {
  // The acceptance contract of the batched layer: the parallel sweep must
  // reproduce the serial study bit for bit, counters included.
  expect_thread_count_invariant(dissector(), study());

  const IslandWorld islands;
  expect_thread_count_invariant(islands.dissector, islands.dissector.dissect());

  // A 1x generated world swept over every city, with a conduit engine
  // that drops every tenth conduit: thousands of fiber-unreachable pairs
  // spread over many source rows.
  worldgen::WorldSpec spec;
  spec.scale = 1.0;
  const auto world = worldgen::generate_world(spec);
  std::vector<route::EdgeSpec> edges;
  for (const auto& c : world.map().conduits()) {
    if (c.id % 10 != 0) edges.push_back({c.a, c.b, c.length_km});
  }
  const auto engine = std::make_shared<const route::PathEngine>(
      static_cast<route::NodeId>(world.cities().size()), std::move(edges));
  std::vector<transport::CityId> every_city(world.cities().size());
  for (transport::CityId c = 0; c < every_city.size(); ++c) every_city[c] = c;
  const LatencyDissector thinned(engine, every_city, world.cities(), world.row());
  const auto serial = thinned.dissect();
  EXPECT_GT(serial.fiber_unreachable, serial.pairs.size() / 20);
  expect_exact_aggregates(serial);
  expect_thread_count_invariant(thinned, serial);
}

TEST(DissectStudy, PointQueryMatchesSweepEntryBitwise) {
  // dissect_pair and the sweep are the same pure function of the graphs;
  // spot-check a spread of entries.
  const std::size_t stride = study().pairs.size() / 7 + 1;
  for (std::size_t i = 0; i < study().pairs.size(); i += stride) {
    const auto& expected = study().pairs[i];
    const auto got = dissector().dissect_pair(expected.a, expected.b);
    EXPECT_EQ(got.fiber_ms, expected.fiber_ms);
    EXPECT_EQ(got.row_ms, expected.row_ms);
    EXPECT_EQ(got.clat_ms, expected.clat_ms);
    EXPECT_EQ(got.refraction_ms, expected.refraction_ms);
    EXPECT_EQ(got.row_inflation_ms, expected.row_inflation_ms);
    EXPECT_EQ(got.detour_ms, expected.detour_ms);
    EXPECT_EQ(got.stretch, expected.stretch);
  }
}

TEST(DissectStudy, SharedEngineConstructorMatchesFreshBuild) {
  // The serve/ path hands the dissector an already compiled conduit
  // engine; that must be indistinguishable from building one from the map
  // (same edges in the same order -> bitwise identical study).
  const auto& map = testing::shared_scenario().map();
  std::vector<route::EdgeSpec> edges;
  for (const auto& c : map.conduits()) edges.push_back({c.a, c.b, c.length_km});
  const auto shared = std::make_shared<const route::PathEngine>(
      static_cast<route::NodeId>(core::Scenario::cities().size()), std::move(edges));
  const LatencyDissector borrowed(shared, map.nodes(), core::Scenario::cities(),
                                  testing::shared_scenario().row());
  const auto borrowed_study = borrowed.dissect();
  ASSERT_EQ(borrowed_study.pairs.size(), study().pairs.size());
  for (std::size_t i = 0; i < borrowed_study.pairs.size(); ++i) {
    EXPECT_EQ(borrowed_study.pairs[i].fiber_ms, study().pairs[i].fiber_ms);
    EXPECT_EQ(borrowed_study.pairs[i].row_ms, study().pairs[i].row_ms);
  }
}

TEST(DissectStudy, TargetFactorMovesWithinTargetMonotonically) {
  DissectOptions loose;
  loose.target_factor = 4.0;
  const auto relaxed = dissector().dissect(nullptr, loose);
  EXPECT_GE(relaxed.within_target, study().within_target);
  EXPECT_EQ(relaxed.pairs.size(), study().pairs.size());
}

}  // namespace
}  // namespace intertubes::dissect
