// Parallel-vs-serial bit identity on generated worlds: the sim::Executor
// fan-out of campaigns must be byte-identical to its serial run for any
// thread count — not just on the canonical scenario the unit tests pin,
// but across the whole space of valid maps the generators can produce.
// The robustness planner's reroutes are checked against masked point
// queries alongside, and every step of a campaign trial and of the
// random and targeted campaign means against the forward DFS the reverse
// connectivity pass replaced (oracle O11).
#include <gtest/gtest.h>

#include "oracles.hpp"
#include "prop/generators.hpp"
#include "prop/prop.hpp"
#include "prop/prop_gtest.hpp"

namespace intertubes::testing {
namespace {

TEST(PropSim, CampaignReportsBitIdenticalAcrossExecutors) {
  EXPECT_PROP(prop::check<oracles::CampaignCase>("campaign_parallel_vs_serial",
                                                 oracles::campaign_cases(),
                                                 oracles::campaign_bit_identity_property()));
}

TEST(PropSim, ReversePassMatchesForwardDfs) {
  EXPECT_PROP(prop::check<oracles::FailureSequenceCase>("reverse_pass_vs_forward_dfs",
                                                        oracles::failure_sequence_cases(),
                                                        oracles::reverse_pass_property()));
}

TEST(PropSim, PlannerReroutesMatchMaskedPointQueries) {
  EXPECT_PROP(prop::check<prop::MapSpec>("planner_reroute_vs_masked_query", prop::fiber_maps(),
                                         oracles::planner_reroute_property()));
}

}  // namespace
}  // namespace intertubes::testing
