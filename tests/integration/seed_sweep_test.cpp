// Multi-seed sweep: the paper-shape findings must hold for *any* world the
// generator produces, not just the canonical seed.  Each seed builds a
// full world + pipeline (cached per seed within the test binary).
#include <gtest/gtest.h>

#include <array>
#include <map>

#include "core/fidelity.hpp"
#include "core/scenario.hpp"
#include "optimize/latency.hpp"
#include "risk/risk_matrix.hpp"
#include "sim/executor.hpp"

namespace intertubes {
namespace {

constexpr std::array<std::uint64_t, 3> kSweepSeeds = {0x1111ULL, 0x2222ULL, 0x3333ULL};

const core::Scenario& scenario_at(std::uint64_t seed) {
  // All swept worlds build concurrently on a sim::Executor the first time
  // any of them is requested — the sweep's serial cost is the slowest
  // single world, not the sum.
  static const std::map<std::uint64_t, std::unique_ptr<core::Scenario>> cache = [] {
    sim::Executor executor(kSweepSeeds.size());
    auto worlds = executor.parallel_map<std::unique_ptr<core::Scenario>>(
        kSweepSeeds.size(),
        [](std::size_t i) {
          return std::make_unique<core::Scenario>(core::ScenarioParams::with_seed(kSweepSeeds[i]));
        },
        1);
    std::map<std::uint64_t, std::unique_ptr<core::Scenario>> by_seed;
    for (std::size_t i = 0; i < kSweepSeeds.size(); ++i) {
      by_seed.emplace(kSweepSeeds[i], std::move(worlds[i]));
    }
    return by_seed;
  }();
  return *cache.at(seed);
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, PipelineProducesSubstantialMap) {
  const auto& scenario = scenario_at(GetParam());
  const auto stats = core::compute_stats(scenario.map());
  EXPECT_GT(stats.nodes, 100u);
  EXPECT_GT(stats.links, 500u);
  EXPECT_GT(stats.conduits, 200u);
}

TEST_P(SeedSweep, SharingRegimeHolds) {
  const auto& scenario = scenario_at(GetParam());
  const auto matrix = risk::RiskMatrix::from_map(scenario.map());
  const auto counts = matrix.conduits_shared_by_at_least();
  const double total = static_cast<double>(matrix.num_conduits());
  ASSERT_GE(counts.size(), 4u);
  EXPECT_GT(counts[1] / total, 0.70);  // >= 2 ISPs
  EXPECT_GT(counts[3] / total, 0.40);  // >= 4 ISPs
  // A handful of very heavily shared choke points exist at every seed.
  EXPECT_GE(matrix.conduits_shared_by_more_than(14).size(), 3u);
}

TEST_P(SeedSweep, FidelityFloor) {
  const auto& scenario = scenario_at(GetParam());
  const auto fidelity = core::score_fidelity(scenario.map(), scenario.truth());
  EXPECT_GT(fidelity.conduit_precision, 0.65);
  EXPECT_GT(fidelity.conduit_recall, 0.7);
  EXPECT_GT(fidelity.tenancy_recall, 0.65);
}

TEST_P(SeedSweep, FacilitiesOwnersRankBelowLessees) {
  const auto& scenario = scenario_at(GetParam());
  const auto& profiles = scenario.truth().profiles();
  const auto matrix = risk::RiskMatrix::from_map(scenario.map());
  const auto ranking = matrix.isp_risk_ranking();
  auto mean_of = [&](const char* name) {
    const auto id = isp::find_profile(profiles, name);
    for (const auto& row : ranking) {
      if (row.isp == id) return row.mean_sharing;
    }
    return 0.0;
  };
  // Level 3's mean sharing below the non-US lessee average, at every seed.
  const double lessees = (mean_of("NTT") + mean_of("Tata") + mean_of("TeliaSonera")) / 3.0;
  EXPECT_LT(mean_of("Level 3"), lessees);
}

TEST_P(SeedSweep, LatencyOrderingInvariants) {
  const auto& scenario = scenario_at(GetParam());
  const auto study =
      optimize::latency_study(scenario.map(), core::Scenario::cities(), scenario.row());
  ASSERT_FALSE(study.pairs.empty());
  for (const auto& pair : study.pairs) {
    EXPECT_LE(pair.los_ms, pair.row_ms + 1e-9);
    // row_ms is +inf when the ROW graph cannot connect the pair; only
    // reachable pairs admit the ROW <= best comparison.
    if (pair.row_reachable) {
      EXPECT_LE(pair.row_ms, pair.best_ms + 1e-9);
    }
    EXPECT_LE(pair.best_ms, pair.avg_ms + 1e-9);
  }
  EXPECT_GT(study.fraction_best_is_row, 0.35);
}

INSTANTIATE_TEST_SUITE_P(Worlds, SeedSweep, ::testing::ValuesIn(kSweepSeeds));

}  // namespace
}  // namespace intertubes
