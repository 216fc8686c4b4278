// Shared traceroute fixtures: the canonical world's L3 topology and one
// seed-0x1257, 60 000-probe campaign over it.  Both are built lazily once
// per test process; the traceroute suites that only read them share these
// instead of each running the ~2 s campaign again.
#pragma once

#include "test_support.hpp"
#include "traceroute/campaign.hpp"
#include "traceroute/l3_topology.hpp"

namespace intertubes::testing {

inline const traceroute::L3Topology& shared_l3_topology() {
  static const traceroute::L3Topology topo = traceroute::L3Topology::from_ground_truth(
      shared_scenario().truth(), core::Scenario::cities());
  return topo;
}

inline traceroute::CampaignParams shared_campaign_params() {
  traceroute::CampaignParams params;
  params.seed = 0x1257;
  params.num_probes = 60000;
  return params;
}

inline const traceroute::Campaign& shared_campaign() {
  static const traceroute::Campaign campaign = traceroute::run_campaign(
      shared_l3_topology(), core::Scenario::cities(), shared_campaign_params());
  return campaign;
}

}  // namespace intertubes::testing
