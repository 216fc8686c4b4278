// Router DNS naming and decoding — the paper's hop-attribution mechanism.
//
// §4.3 infers conduit tenants "through analysis of naming conventions in
// the traceroute data" (refs [78] "What's in a Name? Decoding Router
// Interface Names" and [92] DRoP).  Real carriers embed city codes and
// their domain in interface names ("ae-3.r21.chcgil.sprintlink.net");
// this module generates such names for the simulated routers and decodes
// them back — so attribution rests on an actual parser, with the actual
// failure mode: routers without descriptive reverse DNS are opaque.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "isp/profiles.hpp"
#include "transport/cities.hpp"

namespace intertubes::traceroute {

/// The 6-ish character location code a carrier would embed for a city
/// ("chcgil" for Chicago IL, "sltlcut" style for multi-word names).
/// Deterministic in the city record.
std::string city_code(const transport::City& city);

/// The carrier's DNS zone ("sprintlink.net", "level3.net", ...).  Real
/// domains for the twenty studied ISPs; a slug fallback otherwise.
std::string isp_domain(const isp::IspProfile& profile);

/// The part of a router's descriptive names that is fixed per router:
/// "<citycode>.<domain>".  Callers naming many interfaces build it once.
std::string router_name_suffix(const isp::IspProfile& profile, const transport::City& city);

/// A descriptive interface name: "ae-<iface>.cr<router>.<suffix>", with
/// `suffix` from router_name_suffix.  `salt` varies the interface/router
/// tokens deterministically.
std::string router_dns_name(std::string_view suffix, std::uint64_t salt);

/// router_dns_name(router_name_suffix(profile, city), salt).
std::string router_dns_name(const isp::IspProfile& profile, const transport::City& city,
                            std::uint64_t salt);

/// Decode a hostname back to (ISP, city).  Either component may fail
/// independently: unknown domain → no ISP; no recognizable city code → no
/// city.  Empty names (no PTR record) decode to nothing.
class NameDecoder {
 public:
  NameDecoder(const transport::CityDatabase& cities,
              const std::vector<isp::IspProfile>& profiles);

  struct Decoded {
    std::optional<isp::IspId> isp;
    std::optional<transport::CityId> city;
  };

  Decoded decode(const std::string& hostname) const;

 private:
  std::unordered_map<std::string, isp::IspId> by_domain_;
  std::unordered_map<std::string, transport::CityId> by_code_;
};

}  // namespace intertubes::traceroute
