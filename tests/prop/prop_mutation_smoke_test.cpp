// Mutation smoke: one deliberate fault per oracle, proving each oracle is
// actually capable of failing.  A differential comparison that passes no
// matter what is not a test; here every Fault value is injected in turn
// and the corresponding check() must (a) fail, and (b) fail the same way
// again when re-run from its own printed --seed=/--prop_trial= repro.
//
// The configuration is pinned (not Config::active()) so the smoke suite
// means the same thing under any outer --seed= override: smoke proves
// oracle *sensitivity*, the real prop suites provide input coverage.
#include <gtest/gtest.h>

#include <functional>

#include "oracles.hpp"
#include "prop/generators.hpp"
#include "prop/prop.hpp"
#include "test_support.hpp"

namespace intertubes::testing {
namespace {

using oracles::Fault;

prop::Config smoke_config() {
  prop::Config config;
  config.seed = 0x5EED;
  config.trials = 64;
  config.max_shrink_steps = 60;  // bound the descent; smoke needs failure, not minimality
  return config;
}

/// Run the faulted check, assert it fails, then replay the printed repro
/// (same seed, forced failing trial) and assert the identical failure.
void expect_fault_detected(const std::function<prop::CheckResult(const prop::Config&)>& run) {
  const auto first = run(smoke_config());
  ASSERT_FALSE(first.passed) << "injected fault was NOT detected — the oracle cannot fail";
  EXPECT_FALSE(first.repro.empty());

  prop::Config replay = smoke_config();
  replay.forced_trial = first.failing_trial;
  const auto again = run(replay);
  ASSERT_FALSE(again.passed) << "repro line did not reproduce the failure";
  EXPECT_EQ(again.failing_trial, first.failing_trial);
  EXPECT_EQ(again.failure, first.failure);
  EXPECT_EQ(again.counterexample, first.counterexample);
  EXPECT_EQ(again.repro, first.repro);
}

TEST(PropMutationSmoke, DetectsSubjectCostOff) {
  expect_fault_detected([](const prop::Config& config) {
    return prop::check<prop::GraphCase>("smoke_subject_cost_off", prop::graph_cases(),
                                        oracles::path_reference_property(Fault::SubjectCostOff),
                                        config);
  });
}

TEST(PropMutationSmoke, DetectsReferenceIgnoringMask) {
  expect_fault_detected([](const prop::Config& config) {
    return prop::check<prop::GraphCase>(
        "smoke_reference_ignores_mask", prop::graph_cases(),
        oracles::path_reference_property(Fault::ReferenceIgnoresMask), config);
  });
}

TEST(PropMutationSmoke, DetectsDroppedOverlayEdge) {
  expect_fault_detected([](const prop::Config& config) {
    return prop::check<prop::GraphCase>(
        "smoke_rebuild_drops_overlay", prop::graph_cases(),
        oracles::overlay_rebuild_property(Fault::RebuildDropsOverlay), config);
  });
}

TEST(PropMutationSmoke, DetectsLeakedBaseWeight) {
  expect_fault_detected([](const prop::Config& config) {
    return prop::check<prop::GraphCase>(
        "smoke_override_leaks_weight", prop::graph_cases(),
        oracles::override_rebuild_property(Fault::OverrideLeaksBaseWeight), config);
  });
}

TEST(PropMutationSmoke, DetectsRerouteReferenceIgnoringMask) {
  expect_fault_detected([](const prop::Config& config) {
    return prop::check<prop::MapSpec>(
        "smoke_reroute_reference_ignores_mask", prop::fiber_maps(),
        oracles::planner_reroute_property(Fault::RerouteReferenceIgnoresMask), config);
  });
}

TEST(PropMutationSmoke, DetectsTamperedSerialCampaign) {
  expect_fault_detected([](const prop::Config& config) {
    return prop::check<oracles::CampaignCase>(
        "smoke_tamper_serial_campaign", oracles::campaign_cases(),
        oracles::campaign_bit_identity_property(Fault::TamperSerialReport), config);
  });
}

TEST(PropMutationSmoke, DetectsMiscountedSeveredLinks) {
  const serve::Snapshot& base = oracles::shared_base_snapshot();
  expect_fault_detected([&base](const prop::Config& config) {
    return prop::check<std::vector<core::ConduitId>>(
        "smoke_miscount_severed", prop::cut_sets(base.map().conduits().size(), 12),
        oracles::whatif_cut_property(base, Fault::MiscountSeveredLinks), config);
  });
}

TEST(PropMutationSmoke, DetectsSearchDroppingATarget) {
  expect_fault_detected([](const prop::Config& config) {
    return prop::check<prop::GraphCase>(
        "smoke_search_drops_target", prop::graph_cases(),
        oracles::target_search_property(Fault::SearchDropsTarget), config);
  });
}

TEST(PropMutationSmoke, DetectsReferenceKeepingFirstReroute) {
  expect_fault_detected([](const prop::Config& config) {
    return prop::check<oracles::CascadeCase>(
        "smoke_reference_keeps_first_reroute", oracles::cascade_cases(),
        oracles::cascade_reference_property(Fault::ReferenceKeepsFirstReroute), config);
  });
}

TEST(PropMutationSmoke, DetectsReferenceKillingRepeatLate) {
  expect_fault_detected([](const prop::Config& config) {
    return prop::check<oracles::FailureSequenceCase>(
        "smoke_reference_kills_repeat_late", oracles::failure_sequence_cases(),
        oracles::reverse_pass_property(Fault::ReferenceKillsRepeatLate), config);
  });
}

TEST(PropMutationSmoke, DetectsCorruptDatasetLine) {
  const auto& scenario = shared_scenario();
  const std::size_t num_isps = std::min<std::size_t>(4, scenario.truth().profiles().size());
  expect_fault_detected([&scenario, num_isps](const prop::Config& config) {
    return prop::check<prop::MapSpec>(
        "smoke_corrupt_dataset_line", prop::scenario_map_specs(scenario.row(), num_isps),
        oracles::ingest_equivalence_property(scenario, Fault::CorruptDatasetLine), config);
  });
}

}  // namespace
}  // namespace intertubes::testing
