// Cross-module property sweeps: invariants that tie the definitions
// together rather than exercising one module.  Two flavors — fixed sweeps
// over the shared scenario, and generator-driven sweeps over random maps
// from prop/ (seeded, shrinking, `--seed=` repro on failure).
#include <gtest/gtest.h>

#include <sstream>

#include "core/longhaul.hpp"
#include "core/pipeline.hpp"
#include "geo/colocation.hpp"
#include "prop/prop.hpp"
#include "prop/prop_gtest.hpp"
#include "risk/risk_matrix.hpp"
#include "sim/campaign.hpp"
#include "test_support.hpp"

namespace intertubes {
namespace {

const core::Scenario& scenario() { return testing::shared_scenario(); }

sim::CampaignReport run_campaign(const core::FiberMap& map, sim::Stressor stressor,
                                 std::size_t trials) {
  return sim::CampaignEngine(map).run({stressor, trials, 0xF00D});
}

TEST(RiskMatrixProperties, EntryDefinitionHolds) {
  // entry(i, c) = sharing(c) iff ISP i uses c, else 0 — for every cell.
  const auto matrix = risk::RiskMatrix::from_map(scenario().map());
  for (isp::IspId i = 0; i < matrix.num_isps(); i += 3) {
    for (core::ConduitId c = 0; c < matrix.num_conduits(); c += 7) {
      if (matrix.uses(i, c)) {
        EXPECT_EQ(matrix.entry(i, c), matrix.sharing_count(c));
        EXPECT_GE(matrix.sharing_count(c), 1u);
      } else {
        EXPECT_EQ(matrix.entry(i, c), 0u);
      }
    }
  }
}

TEST(RiskMatrixProperties, SharingCountsMatchTenantSets) {
  const auto matrix = risk::RiskMatrix::from_map(scenario().map());
  for (const auto& conduit : scenario().map().conduits()) {
    EXPECT_EQ(matrix.sharing_count(conduit.id), conduit.tenants.size());
  }
}

TEST(TransportProperties, PipelineNetworkConnected) {
  // The pruning keeps even the sparsest mode connected (union-find patch).
  const auto& net = scenario().bundle().pipeline;
  std::vector<char> visited(core::Scenario::cities().size(), 0);
  std::vector<transport::CityId> stack{0};
  visited[0] = 1;
  std::size_t count = 1;
  while (!stack.empty()) {
    const auto u = stack.back();
    stack.pop_back();
    for (auto eid : net.edges_at(u)) {
      const auto& e = net.edges()[eid];
      const auto v = (e.a == u) ? e.b : e.a;
      if (!visited[v]) {
        visited[v] = 1;
        ++count;
        stack.push_back(v);
      }
    }
  }
  EXPECT_EQ(count, core::Scenario::cities().size());
}

TEST(ColocationProperties, BufferMonotonicity) {
  // A wider buffer can only increase the co-located fraction.
  geo::ReferenceNetwork rail("rail");
  for (const auto& e : scenario().bundle().rail.edges()) rail.add_route(e.path);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < scenario().map().conduits().size(); i += 47) {
    const auto& conduit = scenario().map().conduits()[i];
    const auto& path = scenario().row().corridor(conduit.corridor).path;
    const auto narrow = geo::colocation_fractions(path, {&rail}, 1.0, 10.0);
    const auto wide = geo::colocation_fractions(path, {&rail}, 8.0, 10.0);
    EXPECT_GE(wide.fraction[0] + 1e-12, narrow.fraction[0]);
    ++checked;
  }
  EXPECT_GT(checked, 3u);
}

TEST(CutsProperties, RandomFailureCurveMonotone) {
  const auto curve =
      run_campaign(scenario().map(), sim::Stressor::random_cuts(25), 4).connectivity.points;
  for (std::size_t f = 1; f < curve.size(); ++f) {
    EXPECT_LE(curve[f].mean, curve[f - 1].mean + 1e-12);
  }
}

TEST(CutsProperties, TargetedWeaklyWorseThanRandomService) {
  // Against the *service* metric, the adversary is never worse than the
  // average backhoe at equal cut counts.
  const auto random =
      run_campaign(scenario().map(), sim::Stressor::random_cuts(20), 6).links_hit.points;
  const auto targeted =
      run_campaign(scenario().map(), sim::Stressor::targeted_cuts(20), 1).links_hit.points;
  for (std::size_t f = 0; f < random.size(); ++f) {
    EXPECT_GE(targeted[f].mean + 1e-9, random[f].mean * 0.8)
        << "targeted should track or beat random at f=" << f;
  }
}

TEST(PipelineProperties, SnapParamsSweepKeepsStepOneSane) {
  // Tighter/looser snapping changes conduit counts but never breaks the
  // step-1 invariants (only geocoded ISPs, valid chains).
  for (const double buffer_km : {4.0, 6.5, 12.0}) {
    core::PipelineParams params;
    params.snap_buffer_km = buffer_km;
    core::MapBuilder builder(core::Scenario::cities(), scenario().row(),
                             scenario().truth().profiles(), scenario().corpus(), params);
    core::FiberMap map(scenario().truth().num_isps());
    core::StepReport report;
    builder.step1_initial_map(map, scenario().published(), report);
    EXPECT_GT(report.links_added, 300u) << buffer_km;
    EXPECT_GT(map.conduits().size(), 150u) << buffer_km;
    for (const auto& link : map.links()) {
      EXPECT_TRUE(scenario().truth().profiles()[link.isp].publishes_geocoded_map);
    }
  }
}

// --- Generator-driven sweeps (prop/): random maps, not just the one
// shared scenario.  Failures print a --seed= repro line and shrink to a
// minimal MapSpec.

TEST(GeneratedMapProperties, RiskMatrixDefinitionHoldsOnGeneratedMaps) {
  const prop::Property<prop::MapSpec> property =
      [](const prop::MapSpec& spec) -> std::optional<std::string> {
    const auto map = prop::build_fiber_map(spec);
    const auto matrix = risk::RiskMatrix::from_map(map);
    for (const auto& conduit : map.conduits()) {
      if (matrix.sharing_count(conduit.id) != conduit.tenants.size()) {
        std::ostringstream why;
        why << "sharing_count(" << conduit.id << ") = " << matrix.sharing_count(conduit.id)
            << " but the conduit has " << conduit.tenants.size() << " tenants";
        return why.str();
      }
    }
    for (isp::IspId i = 0; i < matrix.num_isps(); ++i) {
      for (core::ConduitId c = 0; c < matrix.num_conduits(); ++c) {
        const auto expected = matrix.uses(i, c) ? matrix.sharing_count(c) : 0u;
        if (matrix.entry(i, c) != expected) {
          std::ostringstream why;
          why << "entry(" << i << ", " << c << ") = " << matrix.entry(i, c) << ", expected "
              << expected;
          return why.str();
        }
      }
    }
    return std::nullopt;
  };
  EXPECT_PROP(prop::check<prop::MapSpec>("integration riskmatrix definition", prop::fiber_maps(),
                                         property));
}

TEST(GeneratedMapProperties, FailureCurvesMonotoneOnGeneratedMaps) {
  const prop::Property<prop::MapSpec> property =
      [](const prop::MapSpec& spec) -> std::optional<std::string> {
    const auto map = prop::build_fiber_map(spec);
    const auto steps = std::min<std::size_t>(map.conduits().size(), 8);
    for (const auto stressor :
         {sim::Stressor::random_cuts(steps), sim::Stressor::targeted_cuts(steps)}) {
      const auto curve = run_campaign(map, stressor, 2).connectivity.points;
      for (std::size_t f = 1; f < curve.size(); ++f) {
        if (curve[f].mean > curve[f - 1].mean + 1e-12) {
          std::ostringstream why;
          why << "connectivity rose from step " << (f - 1) << " to " << f << " ("
              << curve[f - 1].mean << " -> " << curve[f].mean << ") under "
              << sim::stressor_name(stressor);
          return why.str();
        }
      }
    }
    return std::nullopt;
  };
  EXPECT_PROP(prop::check<prop::MapSpec>("integration failure curve monotone", prop::fiber_maps(),
                                         property));
}

TEST(LongHaulProperties, FilterNearlyIdempotent) {
  // Strict idempotence is not guaranteed: a link kept only via the sharing
  // rule can lose its co-tenant in the first pass.  The second pass may
  // therefore shrink the map slightly, but never grow it.
  const auto once = core::filter_long_haul(scenario().map(), core::Scenario::cities());
  const auto twice = core::filter_long_haul(once, core::Scenario::cities());
  EXPECT_LE(twice.links().size(), once.links().size());
  EXPECT_GE(twice.links().size(), once.links().size() * 9 / 10);
}

}  // namespace
}  // namespace intertubes
