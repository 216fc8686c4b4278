#include "traceroute/campaign.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace intertubes::traceroute {

using transport::CityId;

namespace {

/// Flow key: (src city, access router, dst city).
struct FlowKey {
  CityId src;
  RouterIdx access;
  CityId dst;
  bool operator<(const FlowKey& o) const noexcept {
    if (src != o.src) return src < o.src;
    if (access != o.access) return access < o.access;
    return dst < o.dst;
  }
  bool operator==(const FlowKey&) const noexcept = default;
};

struct FlowCount {
  FlowKey key;
  std::uint64_t count = 0;
};

/// The distinct keys of `probes` with their multiplicities, in key order.
std::vector<FlowCount> count_flows(std::vector<FlowKey> probes) {
  std::sort(probes.begin(), probes.end());
  std::vector<FlowCount> flows;
  for (const FlowKey& key : probes) {
    if (flows.empty() || flows.back().key != key) flows.push_back({key, 0});
    ++flows.back().count;
  }
  return flows;
}

}  // namespace

Campaign run_campaign(const L3Topology& topo, const transport::CityDatabase& cities,
                      const CampaignParams& params) {
  return run_campaign(topo, cities, isp::default_profiles(), params);
}

Campaign run_campaign(const L3Topology& topo, const transport::CityDatabase& cities,
                      const std::vector<isp::IspProfile>& profiles,
                      const CampaignParams& params) {
  Rng rng(mix64(params.seed ^ 0x7ace1234ULL));
  Campaign campaign;

  // Endpoint weights: population^gravity over cities that host routers
  // (sources need an access network; destinations need a POP to respond
  // from).  Every weight is >= 0, so summing them all in index order gives
  // the total weighted_pick(weights) would compute on each draw.
  std::vector<double> weights(cities.size(), 0.0);
  double total_weight = 0.0;
  for (CityId c = 0; c < cities.size(); ++c) {
    if (topo.routers_in(c).empty()) continue;
    weights[c] =
        std::pow(static_cast<double>(cities.city(c).population), params.gravity_exponent);
    total_weight += weights[c];
  }

  // Aggregate probe multiplicity per flow.
  std::vector<FlowKey> probes;
  probes.reserve(params.num_probes);
  for (std::uint64_t i = 0; i < params.num_probes; ++i) {
    const auto src = static_cast<CityId>(rng.weighted_pick(weights, total_weight));
    CityId dst = src;
    for (int attempt = 0; attempt < 8 && dst == src; ++attempt) {
      dst = static_cast<CityId>(rng.weighted_pick(weights, total_weight));
    }
    if (dst == src) continue;
    const auto& access_candidates = topo.routers_in(src);
    const RouterIdx access =
        access_candidates[rng.next_below(access_candidates.size())];
    probes.push_back(FlowKey{src, access, dst});
  }
  const std::vector<FlowCount> flow_counts = count_flows(std::move(probes));
  campaign.total_probes = params.num_probes;

  // A router's names differ only in their salted "ae-N.crM." prefix, and
  // the ISP that NameDecoder reads from a name depends only on its last
  // two labels, the carrier's domain, which the suffix ends with.  Both are
  // built once per router.
  const NameDecoder decoder(cities, profiles);
  std::vector<std::string> name_suffix(topo.routers().size());
  std::vector<isp::IspId> name_isp(topo.routers().size());
  for (RouterIdx r = 0; r < topo.routers().size(); ++r) {
    const Router& router = topo.routers()[r];
    name_suffix[r] = router_name_suffix(profiles[router.isp], cities.city(router.city));
    name_isp[r] = decoder.decode(name_suffix[r]).isp.value_or(isp::kNoIsp);
  }

  // Route each distinct flow once; render observed hops with artifacts.
  std::vector<CityId> group_dsts;
  L3Routes routes;
  for (std::size_t f = 0; f < flow_counts.size(); ++f) {
    const auto& [key, count] = flow_counts[f];
    if (f == 0 || flow_counts[f - 1].key.access != key.access) {
      // An access router sits in one city, so its flows are contiguous in
      // key order, and one search from it answers them all.
      group_dsts.clear();
      for (std::size_t g = f; g < flow_counts.size() && flow_counts[g].key.access == key.access;
           ++g) {
        group_dsts.push_back(flow_counts[g].key.dst);
      }
      routes = topo.routes_from(key.access, group_dsts, params.peering);
    }
    const auto route = routes.route(key.dst);
    if (route.empty()) {
      campaign.unroutable_probes += count;
      continue;
    }
    TraceFlow flow;
    flow.src = key.src;
    flow.dst = key.dst;
    flow.count = count;
    flow.true_corridors = routes.corridors(key.dst);

    // Observation artifacts are drawn once per flow (a given router's DNS
    // name either resolves or it does not; a given LSP hides the same
    // interior hops for every probe of the flow).
    Rng obs_rng(mix64(params.seed ^ (static_cast<std::uint64_t>(key.access) << 32) ^
                      (static_cast<std::uint64_t>(key.src) << 16) ^ key.dst));
    for (std::size_t h = 0; h < route.size(); ++h) {
      const Router& router = topo.routers()[route[h]];
      const bool interior = h > 0 && h + 1 < route.size();
      if (interior && obs_rng.chance(params.mpls_hide_prob)) continue;  // in a tunnel
      ObservedHop hop;
      hop.city = router.city;
      // A router either has a descriptive PTR record or none at all; when
      // it does, attribution goes through the real name parser.
      if (obs_rng.chance(params.naming_hint_prob)) {
        hop.dns_name = router_dns_name(
            name_suffix[route[h]],
            mix64(params.seed ^ (static_cast<std::uint64_t>(route[h]) << 20) ^ h));
        hop.isp = name_isp[route[h]];
      }
      flow.hops.push_back(std::move(hop));
    }
    if (flow.hops.size() < 2) {
      campaign.unroutable_probes += count;
      continue;
    }
    campaign.flows.push_back(std::move(flow));
  }
  return campaign;
}

std::string serialize_campaign(const Campaign& campaign, const transport::CityDatabase& cities) {
  std::string out;
  out += "# InterTubes traceroute-campaign archive\n";
  out += "# campaign\ttotal-probes\tunroutable-probes\n";
  out += "# flow\tsrc\tdst\tcount\thops\tcorridors\n";
  out += "campaign\t" + std::to_string(campaign.total_probes) + "\t" +
         std::to_string(campaign.unroutable_probes) + "\n";
  for (const TraceFlow& flow : campaign.flows) {
    out += "flow\t" + cities.city(flow.src).display_name() + "\t" +
           cities.city(flow.dst).display_name() + "\t" + std::to_string(flow.count) + "\t";
    for (std::size_t h = 0; h < flow.hops.size(); ++h) {
      const ObservedHop& hop = flow.hops[h];
      if (h > 0) out.push_back(';');
      out += cities.city(hop.city).display_name() + "|" + hop.dns_name + "|" +
             (hop.isp == isp::kNoIsp ? std::string("-") : std::to_string(hop.isp));
    }
    out.push_back('\t');
    if (flow.true_corridors.empty()) {
      out.push_back('-');
    } else {
      for (std::size_t i = 0; i < flow.true_corridors.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += std::to_string(flow.true_corridors[i]);
      }
    }
    out.push_back('\n');
  }
  return out;
}

Campaign parse_campaign(const std::string& text, const transport::CityDatabase& cities,
                        DiagnosticSink& sink, const std::string& source) {
  Campaign campaign;
  bool have_header = false;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    std::string_view line(text.data() + pos,
                          (nl == std::string::npos ? text.size() : nl) - pos);
    pos = (nl == std::string::npos) ? text.size() + 1 : nl + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;

    const std::vector<std::string> fields = split_fields(line, '\t');
    const auto fail = [&](const std::string& msg) {
      sink.report(Severity::Error, source, line_no, msg);
    };

    if (fields[0] == "campaign") {
      const auto total = fields.size() == 3 ? parse_uint(fields[1]) : std::nullopt;
      const auto unroutable = fields.size() == 3 ? parse_uint(fields[2]) : std::nullopt;
      if (!total || !unroutable) {
        fail("campaign header: expected `campaign\\t<total>\\t<unroutable>`");
        continue;
      }
      campaign.total_probes = *total;
      campaign.unroutable_probes = *unroutable;
      have_header = true;
    } else if (fields[0] == "flow") {
      if (fields.size() != 6) {
        fail("flow: expected 6 fields, got " + std::to_string(fields.size()));
        continue;
      }
      TraceFlow flow;
      const auto src = cities.find(fields[1]);
      const auto dst = cities.find(fields[2]);
      if (!src || !dst) {
        fail("flow: unknown city \"" + (src ? fields[2] : fields[1]) + "\"");
        continue;
      }
      flow.src = *src;
      flow.dst = *dst;
      const auto count = parse_uint(fields[3]);
      if (!count || *count == 0) {
        fail("flow: probe count must be a positive integer, got \"" + fields[3] + "\"");
        continue;
      }
      flow.count = *count;
      bool hops_ok = true;
      for (const std::string& triple : split_fields(fields[4], ';')) {
        const std::vector<std::string> parts = split_fields(triple, '|');
        if (parts.size() != 3) {
          fail("flow: hop must be `city|dns-name|isp`, got \"" + triple + "\"");
          hops_ok = false;
          break;
        }
        ObservedHop hop;
        const auto city = cities.find(parts[0]);
        if (!city) {
          fail("flow: unknown hop city \"" + parts[0] + "\"");
          hops_ok = false;
          break;
        }
        hop.city = *city;
        hop.dns_name = parts[1];
        if (parts[2] != "-") {
          const auto isp_id = parse_uint(parts[2]);
          if (!isp_id || *isp_id >= isp::kNoIsp) {
            fail("flow: malformed hop ISP id \"" + parts[2] + "\"");
            hops_ok = false;
            break;
          }
          hop.isp = static_cast<isp::IspId>(*isp_id);
        }
        flow.hops.push_back(std::move(hop));
      }
      if (!hops_ok) continue;
      if (flow.hops.size() < 2) {
        fail("flow: need at least 2 observed hops, got " + std::to_string(flow.hops.size()));
        continue;
      }
      if (fields[5] != "-") {
        bool corridors_ok = true;
        for (const std::string& cid : split_fields(fields[5], ',')) {
          const auto parsed = parse_uint(cid);
          if (!parsed) {
            fail("flow: malformed corridor id \"" + cid + "\"");
            corridors_ok = false;
            break;
          }
          flow.true_corridors.push_back(static_cast<transport::CorridorId>(*parsed));
        }
        if (!corridors_ok) continue;
      }
      campaign.flows.push_back(std::move(flow));
    } else {
      fail("unknown record type \"" + fields[0] + "\"");
    }
  }
  if (!have_header) {
    sink.report(Severity::Error, source, line_no,
                "missing campaign header; totals fall back to surviving flow counts");
    campaign.total_probes = 0;
    for (const TraceFlow& flow : campaign.flows) campaign.total_probes += flow.count;
    campaign.unroutable_probes = 0;
  }
  return campaign;
}

}  // namespace intertubes::traceroute
