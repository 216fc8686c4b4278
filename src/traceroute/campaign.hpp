// Traceroute campaign simulation — the Edgescope-style measurement data
// of §4.3.
//
// Clients in population-weighted cities probe population-weighted
// destinations; each probe follows the L3 route and is observed as a hop
// list with the classic measurement artifacts: geolocation is per-hop
// city; DNS naming hints reveal the operating ISP only probabilistically;
// MPLS tunnels hide interior hops.  Identical (src, access ISP, dst)
// flows are aggregated with a count, which is what lets the library
// simulate millions of probes cheaply.
#pragma once

#include "traceroute/l3_topology.hpp"
#include "traceroute/naming.hpp"
#include "util/diag.hpp"
#include "util/rng.hpp"

namespace intertubes::traceroute {

struct ObservedHop {
  transport::CityId city = transport::kNoCity;  ///< geolocated position
  /// Reverse-DNS name of the interface; empty when the router has no PTR
  /// record (the real-world opaque case).
  std::string dns_name;
  /// ISP decoded from dns_name via NameDecoder; kNoIsp when the name gave
  /// nothing.
  isp::IspId isp = isp::kNoIsp;
};

/// An aggregated flow of identical traceroutes.
struct TraceFlow {
  transport::CityId src = transport::kNoCity;
  transport::CityId dst = transport::kNoCity;
  std::vector<ObservedHop> hops;
  /// Ground-truth corridors under the route (evaluation only — overlay
  /// never reads this).
  std::vector<transport::CorridorId> true_corridors;
  std::uint64_t count = 0;
};

struct CampaignParams {
  std::uint64_t seed = 0x1257;
  std::uint64_t num_probes = 500000;
  /// Gravity-model exponent on populations for endpoint selection.
  double gravity_exponent = 1.1;
  /// Probability an interior hop is hidden inside an MPLS tunnel.
  double mpls_hide_prob = 0.18;
  /// Probability a router interface has a descriptive reverse-DNS name
  /// (ISP attribution then goes through the NameDecoder).
  double naming_hint_prob = 0.62;
  PeeringParams peering;
};

struct Campaign {
  std::vector<TraceFlow> flows;
  std::uint64_t total_probes = 0;
  std::uint64_t unroutable_probes = 0;
};

/// Run a campaign over the L3 topology.  Deterministic in params.seed.
/// `profiles` drives DNS name generation/decoding; when omitted, the
/// twenty default profiles are used (correct whenever the topology came
/// from a default-profile ground truth).
Campaign run_campaign(const L3Topology& topo, const transport::CityDatabase& cities,
                      const CampaignParams& params = {});
Campaign run_campaign(const L3Topology& topo, const transport::CityDatabase& cities,
                      const std::vector<isp::IspProfile>& profiles,
                      const CampaignParams& params);

/// Serialize a campaign as TSV:
///   campaign <tab> total-probes <tab> unroutable-probes
///   flow <tab> src <tab> dst <tab> count <tab> hops <tab> corridors
/// where hops is `;`-separated `city|dns-name|isp-id-or-"-"` triples and
/// corridors is a comma-separated corridor-id list (or "-" when empty).
std::string serialize_campaign(const Campaign& campaign, const transport::CityDatabase& cities);

/// Parse a campaign archive, reporting malformed flows into `sink` with
/// their input line number; under the lenient policy the bad flow is
/// quarantined and the rest survive.  A missing or malformed `campaign`
/// header is an Error; totals then fall back to the sum of the surviving
/// flow counts.
Campaign parse_campaign(const std::string& text, const transport::CityDatabase& cities,
                        DiagnosticSink& sink, const std::string& source = "<campaign>");

}  // namespace intertubes::traceroute
