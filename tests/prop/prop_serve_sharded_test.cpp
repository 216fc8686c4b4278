// Sharded-vs-single differential oracle: for ANY shard count and ANY
// request mix (including WhatIfCascade and LatencyDissection, plus
// NotFound / BadRequest inputs), ShardedEngine's responses must be
// bit-identical to one unsharded Engine serving the same snapshot.
// Doubles compare by bit pattern (tests/serve/response_diff.hpp) — the
// sharded path must not change a single mantissa bit of any answer.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../serve/response_diff.hpp"
#include "oracles.hpp"
#include "prop/prop.hpp"
#include "prop/prop_gtest.hpp"
#include "serve/sharded.hpp"
#include "test_support.hpp"

namespace intertubes::testing {
namespace {

/// One generated case: a shard count and a request script.
struct ShardCase {
  std::size_t shards = 1;
  std::vector<serve::Request> requests;
};

/// A base snapshot reused across trials.  Each trial republishes it
/// through a fresh primary store (publish restamps the epoch; trials are
/// sequential, so no reader ever observes the restamp).
std::shared_ptr<serve::Snapshot> trial_snapshot() {
  static const std::shared_ptr<serve::Snapshot> snap = serve::Snapshot::build(
      std::shared_ptr<const core::Scenario>(std::shared_ptr<const core::Scenario>{},
                                            &shared_scenario()));
  return snap;
}

serve::Request random_request(Rng& rng) {
  static const std::vector<std::string> cities = {
      "San Francisco, CA", "New York, NY", "Denver, CO",
      "Chicago, IL",       "Seattle, WA",  "Miami, FL",
      "Atlantis, XX",  // unknown: NotFound must be bit-identical too
  };
  const auto& profiles = shared_scenario().truth().profiles();
  const auto isp_name = [&]() -> std::string {
    if (rng.next_below(8) == 0) return "NoSuchISP";
    return profiles[rng.next_below(profiles.size())].name;
  };
  const auto city = [&]() -> std::string { return cities[rng.next_below(cities.size())]; };
  const auto num_conduits = trial_snapshot()->map().conduits().size();
  const auto cut_list = [&]() -> std::vector<core::ConduitId> {
    std::vector<core::ConduitId> cuts;
    const std::size_t n = rng.next_below(3);  // 0 = BadRequest path
    for (std::size_t i = 0; i < n; ++i) {
      // 1-in-8 out of range: the BadRequest answer must match too.
      const std::size_t bound = rng.next_below(8) == 0 ? num_conduits + 3 : num_conduits;
      cuts.push_back(static_cast<core::ConduitId>(rng.next_below(bound + 1)));
    }
    return cuts;
  };
  switch (rng.next_below(7)) {
    case 0:
      return serve::SharedRiskQuery{isp_name()};
    case 1:
      return serve::TopConduitsQuery{rng.next_below(10)};
    case 2:
      return serve::WhatIfCutQuery{cut_list()};
    case 3:
      return serve::CityPathQuery{city(), city()};
    case 4:
      return serve::HammingNeighborsQuery{isp_name(), rng.next_below(6)};
    case 5:
      return serve::LatencyDissectionQuery{city(), city()};
    default:
      return serve::WhatIfCascadeQuery{cut_list(), 0.25, 1 + rng.next_below(4)};
  }
}

prop::Gen<ShardCase> shard_cases() {
  prop::Gen<ShardCase> gen;
  gen.create = [](Rng& rng) {
    ShardCase c;
    c.shards = 1 + rng.next_below(5);
    const std::size_t count = 3 + rng.next_below(10);
    c.requests.reserve(count);
    for (std::size_t i = 0; i < count; ++i) c.requests.push_back(random_request(rng));
    return c;
  };
  gen.shrink = [](const ShardCase& c) {
    std::vector<ShardCase> out;
    if (c.shards > 1) {
      ShardCase fewer = c;
      fewer.shards = 1;
      out.push_back(std::move(fewer));
    }
    for (std::size_t i = 0; i < c.requests.size(); ++i) {
      ShardCase smaller;
      smaller.shards = c.shards;
      smaller.requests = c.requests;
      smaller.requests.erase(smaller.requests.begin() + static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(smaller));
    }
    return out;
  };
  gen.describe = [](const ShardCase& c) {
    std::ostringstream out;
    out << "shards=" << c.shards << " requests=[";
    for (std::size_t i = 0; i < c.requests.size(); ++i) {
      out << (i ? ", " : "") << serve::canonical_key(c.requests[i]);
    }
    out << "]";
    return out.str();
  };
  return gen;
}

prop::Property<ShardCase> sharded_bit_identity_property() {
  return [](const ShardCase& c) -> std::optional<std::string> {
    serve::ShardedEngine sharded({.shards = c.shards});
    sharded.publish(trial_snapshot());
    serve::SnapshotStore single_store;
    // The oracle serves the exact snapshot pointer the fleet serves:
    // install() adopts the epoch the sharded primary stamped, so even the
    // epoch field of every response must agree.
    single_store.install(sharded.current());
    sim::Executor serial(1);
    serve::Engine single(single_store, serial);

    // Two passes: the second hits each side's cache, and cached answers
    // must be as bit-identical as computed ones.
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& request : c.requests) {
        const auto mismatch =
            response_mismatch(sharded.serve(request), single.serve(request));
        if (mismatch) {
          std::ostringstream why;
          why << "pass " << pass << " key '" << serve::canonical_key(request)
              << "' diverges on shards=" << c.shards << ": " << *mismatch;
          return why.str();
        }
      }
    }
    return std::nullopt;
  };
}

TEST(PropServeSharded, ShardedResponsesAreBitIdenticalToSingleEngine) {
  EXPECT_PROP(prop::check<ShardCase>("sharded_vs_single_bit_identity", shard_cases(),
                                     sharded_bit_identity_property()));
}

TEST(PropServeSharded, OracleDetectsACorruptedShardWorld) {
  // Mutation smoke for the oracle above: serve a *different* world from
  // the single engine (one conduit cut) and the comparison must fail —
  // a differ that cannot fail proves nothing.
  serve::ShardedEngine sharded({.shards = 3});
  sharded.publish(trial_snapshot());
  serve::SnapshotStore single_store;
  single_store.publish(serve::Snapshot::with_conduits_cut(
      *sharded.current(), {trial_snapshot()->matrix().most_shared_conduits(1)[0]}));
  sim::Executor serial(1);
  serve::Engine single(single_store, serial);

  bool diverged = false;
  for (const serve::Request& request :
       {serve::Request{serve::TopConduitsQuery{8}},
        serve::Request{serve::WhatIfCutQuery{{0}}}}) {
    if (response_mismatch(sharded.serve(request), single.serve(request))) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace intertubes::testing
