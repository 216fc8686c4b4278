#include "traceroute/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "test_support.hpp"
#include "traceroute/campaign_fixture.hpp"

namespace intertubes::traceroute {
namespace {

const L3Topology& topo() { return testing::shared_l3_topology(); }
CampaignParams small_params() { return testing::shared_campaign_params(); }
const Campaign& campaign() { return testing::shared_campaign(); }

TEST(Campaign, ProbesAccountedFor) {
  std::uint64_t flow_probes = 0;
  for (const auto& flow : campaign().flows) flow_probes += flow.count;
  // Every probe either became part of a flow, was unroutable, or failed to
  // draw distinct endpoints (rare).
  EXPECT_LE(flow_probes + campaign().unroutable_probes, campaign().total_probes);
  EXPECT_GT(flow_probes, campaign().total_probes * 95 / 100);
}

TEST(Campaign, FlowsHaveValidEndpoints) {
  const auto& cities = core::Scenario::cities();
  for (const auto& flow : campaign().flows) {
    EXPECT_NE(flow.src, flow.dst);
    EXPECT_LT(flow.src, cities.size());
    EXPECT_LT(flow.dst, cities.size());
    EXPECT_GT(flow.count, 0u);
    EXPECT_GE(flow.hops.size(), 2u);
  }
}

TEST(Campaign, HopsStartAndEndAtFlowEndpoints) {
  for (const auto& flow : campaign().flows) {
    EXPECT_EQ(flow.hops.front().city, flow.src);
    EXPECT_EQ(flow.hops.back().city, flow.dst);
  }
}

TEST(Campaign, PopulationGravityBiasesEndpoints) {
  const auto& cities = core::Scenario::cities();
  const auto nyc = cities.find("New York, NY");
  const auto wells = cities.find("Wells, NV");
  ASSERT_TRUE(nyc && wells);
  std::uint64_t nyc_probes = 0;
  std::uint64_t wells_probes = 0;
  for (const auto& flow : campaign().flows) {
    if (flow.src == *nyc || flow.dst == *nyc) nyc_probes += flow.count;
    if (flow.src == *wells || flow.dst == *wells) wells_probes += flow.count;
  }
  EXPECT_GT(nyc_probes, 100 * std::max<std::uint64_t>(wells_probes, 1));
}

TEST(Campaign, NamingHintsAtExpectedRate) {
  std::uint64_t hops = 0;
  std::uint64_t named = 0;
  for (const auto& flow : campaign().flows) {
    for (const auto& hop : flow.hops) {
      ++hops;
      if (hop.isp != isp::kNoIsp) ++named;
    }
  }
  ASSERT_GT(hops, 1000u);
  const double rate = static_cast<double>(named) / static_cast<double>(hops);
  EXPECT_NEAR(rate, small_params().naming_hint_prob, 0.05);
}

TEST(Campaign, MplsHidesSomeInteriorHops) {
  // With hide probability 0.18, flows' observed hop count is often less
  // than the underlying route length; detect by comparing total hops
  // against a no-MPLS campaign.
  auto no_mpls = small_params();
  no_mpls.mpls_hide_prob = 0.0;
  const auto full = run_campaign(topo(), core::Scenario::cities(), no_mpls);
  std::uint64_t hops_with = 0;
  std::uint64_t hops_without = 0;
  for (const auto& flow : campaign().flows) hops_with += flow.hops.size();
  for (const auto& flow : full.flows) hops_without += flow.hops.size();
  EXPECT_LT(hops_with, hops_without);
}

TEST(Campaign, NamedHopsAreTruthful) {
  // When naming reveals an ISP at a city, that ISP genuinely has a router
  // there (naming hints are noisy by omission, never by fabrication).
  for (const auto& flow : campaign().flows) {
    for (const auto& hop : flow.hops) {
      if (hop.isp == isp::kNoIsp) continue;
      EXPECT_TRUE(topo().router_at(hop.isp, hop.city).has_value());
    }
  }
}

TEST(Campaign, TrueCorridorsFormPath) {
  // Evaluation metadata: corridors of a flow lie under its hop cities.
  const auto& row = testing::shared_scenario().row();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < campaign().flows.size(); i += 97) {
    const auto& flow = campaign().flows[i];
    if (flow.true_corridors.empty()) continue;
    // Chain connectivity.
    transport::CityId cur = flow.src;
    for (auto cid : flow.true_corridors) {
      const auto& c = row.corridor(cid);
      ASSERT_TRUE(c.a == cur || c.b == cur);
      cur = (c.a == cur) ? c.b : c.a;
    }
    EXPECT_EQ(cur, flow.dst);
    ++checked;
  }
  EXPECT_GT(checked, 5u);
}

TEST(Campaign, DeterministicInSeed) {
  const auto again = run_campaign(topo(), core::Scenario::cities(), small_params());
  ASSERT_EQ(again.flows.size(), campaign().flows.size());
  for (std::size_t i = 0; i < again.flows.size(); i += 53) {
    EXPECT_EQ(again.flows[i].src, campaign().flows[i].src);
    EXPECT_EQ(again.flows[i].dst, campaign().flows[i].dst);
    EXPECT_EQ(again.flows[i].count, campaign().flows[i].count);
    EXPECT_EQ(again.flows[i].hops.size(), campaign().flows[i].hops.size());
  }
}

TEST(Campaign, SeedChangesSampling) {
  auto other_params = small_params();
  other_params.seed = 0x9f;
  const auto other = run_campaign(topo(), core::Scenario::cities(), other_params);
  EXPECT_NE(other.flows.size(), campaign().flows.size());
}

TEST(Campaign, FlowAggregationReducesVolume) {
  // Aggregation must compress far below one flow per probe.
  EXPECT_LT(campaign().flows.size(), campaign().total_probes / 2);
}

}  // namespace
}  // namespace intertubes::traceroute
