#include "traceroute/naming.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace intertubes::traceroute {

std::string city_code(const transport::City& city) {
  // Letters of the name, lowercased; keep the leading letter of each word
  // and following consonants until the code has four letters, then append
  // the state code.  "Salt Lake City" → "sltl" + "ut".
  std::string code;
  bool word_start = true;
  for (char ch : city.name) {
    if (code.size() >= 4) break;
    const auto lower = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    if (lower < 'a' || lower > 'z') {
      word_start = true;
      continue;
    }
    const bool vowel =
        lower == 'a' || lower == 'e' || lower == 'i' || lower == 'o' || lower == 'u';
    if (word_start || !vowel) code.push_back(lower);
    word_start = false;
  }
  // Pad very short names with their vowels ("Ocala" → "ocl" + 'a').
  if (code.size() < 3) {
    for (char ch : city.name) {
      if (code.size() >= 3) break;
      const auto lower = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      if (lower >= 'a' && lower <= 'z' &&
          code.find(lower) == std::string::npos) {
        code.push_back(lower);
      }
    }
  }
  return code + to_lower(city.state);
}

std::string isp_domain(const isp::IspProfile& profile) {
  static const std::unordered_map<std::string, std::string> kDomains = {
      {"AT&T", "att.net"},
      {"Comcast", "comcast.net"},
      {"Cogent", "cogentco.com"},
      {"EarthLink", "earthlink.net"},
      {"Integra", "integratelecom.com"},
      {"Level 3", "level3.net"},
      {"Suddenlink", "suddenlink.net"},
      {"Verizon", "verizon-gni.net"},
      {"Zayo", "zayo.com"},
      {"CenturyLink", "centurylink.net"},
      {"Cox", "cox.net"},
      {"Deutsche Telekom", "dtag.de"},
      {"HE", "he.net"},
      {"Inteliquent", "inteliquent.com"},
      {"NTT", "ntt.net"},
      {"Sprint", "sprintlink.net"},
      {"Tata", "as6453.net"},
      {"TeliaSonera", "telia.net"},
      {"TWC", "twcable.com"},
      {"XO", "xo.net"},
  };
  const auto it = kDomains.find(profile.name);
  if (it != kDomains.end()) return it->second;
  // Fallback: slug the name.
  std::string slug;
  for (char ch : to_lower(profile.name)) {
    if (std::isalnum(static_cast<unsigned char>(ch))) slug.push_back(ch);
  }
  return slug + ".net";
}

std::string router_name_suffix(const isp::IspProfile& profile, const transport::City& city) {
  return city_code(city) + "." + isp_domain(profile);
}

std::string router_dns_name(std::string_view suffix, std::uint64_t salt) {
  const std::uint64_t h = mix64(salt ^ 0x0d15ea5eULL);
  const auto iface = static_cast<unsigned>(h % 16);
  const auto router = static_cast<unsigned>((h >> 8) % 8);
  std::string name = "ae-" + std::to_string(iface) + ".cr" + std::to_string(router) + ".";
  name += suffix;
  return name;
}

std::string router_dns_name(const isp::IspProfile& profile, const transport::City& city,
                            std::uint64_t salt) {
  return router_dns_name(router_name_suffix(profile, city), salt);
}

NameDecoder::NameDecoder(const transport::CityDatabase& cities,
                         const std::vector<isp::IspProfile>& profiles) {
  for (isp::IspId i = 0; i < profiles.size(); ++i) {
    by_domain_[isp_domain(profiles[i])] = i;
  }
  for (transport::CityId c = 0; c < cities.size(); ++c) {
    by_code_[city_code(cities.city(c))] = c;
  }
}

NameDecoder::Decoded NameDecoder::decode(const std::string& hostname) const {
  Decoded decoded;
  if (hostname.empty()) return decoded;
  const auto labels = split(to_lower(hostname), ".");
  if (labels.size() < 2) return decoded;

  // Domain: the last two labels.
  const std::string domain = labels[labels.size() - 2] + "." + labels.back();
  const auto domain_it = by_domain_.find(domain);
  if (domain_it != by_domain_.end()) decoded.isp = domain_it->second;

  // City code: any non-domain label that matches the gazetteer.
  for (std::size_t i = 0; i + 2 < labels.size() || (labels.size() == 2 && i < 1); ++i) {
    const auto code_it = by_code_.find(labels[i]);
    if (code_it != by_code_.end()) {
      decoded.city = code_it->second;
      break;
    }
  }
  return decoded;
}

}  // namespace intertubes::traceroute
