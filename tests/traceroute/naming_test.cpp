#include "traceroute/naming.hpp"

#include <gtest/gtest.h>

#include "traceroute/campaign.hpp"

#include <map>
#include <set>

#include "test_support.hpp"
#include "util/strings.hpp"

namespace intertubes::traceroute {
namespace {

const transport::CityDatabase& db() { return transport::CityDatabase::us_default(); }
const std::vector<isp::IspProfile>& profiles() { return isp::default_profiles(); }

TEST(CityCode, KnownCodes) {
  EXPECT_EQ(city_code(db().city(*db().find("Chicago, IL"))), "chcgil");
  EXPECT_EQ(city_code(db().city(*db().find("Salt Lake City, UT"))), "sltlut");
  EXPECT_EQ(city_code(db().city(*db().find("New York, NY"))), "nwyrny");
}

TEST(CityCode, LowercaseAlnumOnly) {
  for (const auto& city : db().all()) {
    const auto code = city_code(city);
    EXPECT_GE(code.size(), 4u) << city.display_name();
    for (char ch : code) {
      EXPECT_TRUE(ch >= 'a' && ch <= 'z') << city.display_name() << " -> " << code;
    }
  }
}

TEST(CityCode, MostlyUniqueAcrossDatabase) {
  // Real location codes collide occasionally; ours should collide rarely
  // enough that decoding is useful.
  std::map<std::string, std::size_t> counts;
  for (const auto& city : db().all()) ++counts[city_code(city)];
  std::size_t collisions = 0;
  for (const auto& [code, n] : counts) {
    if (n > 1) collisions += n - 1;
  }
  EXPECT_LT(collisions, db().size() / 20);
}

TEST(IspDomain, RealDomainsForStudiedIsps) {
  auto domain_of = [](const char* name) {
    return isp_domain(profiles()[isp::find_profile(profiles(), name)]);
  };
  EXPECT_EQ(domain_of("Sprint"), "sprintlink.net");
  EXPECT_EQ(domain_of("Level 3"), "level3.net");
  EXPECT_EQ(domain_of("NTT"), "ntt.net");
  EXPECT_EQ(domain_of("Tata"), "as6453.net");
}

TEST(IspDomain, UniquePerProfile) {
  std::set<std::string> domains;
  for (const auto& profile : profiles()) {
    EXPECT_TRUE(domains.insert(isp_domain(profile)).second) << profile.name;
  }
}

TEST(IspDomain, FallbackSlug) {
  isp::IspProfile custom;
  custom.name = "Acme Fiber Co.";
  EXPECT_EQ(isp_domain(custom), "acmefiberco.net");
}

TEST(RouterDnsName, FormatAndDeterminism) {
  const auto& sprint = profiles()[isp::find_profile(profiles(), "Sprint")];
  const auto& chicago = db().city(*db().find("Chicago, IL"));
  const auto name = router_dns_name(sprint, chicago, 42);
  EXPECT_TRUE(contains(name, "chcgil"));
  EXPECT_TRUE(ends_with(name, "sprintlink.net"));
  EXPECT_EQ(name, router_dns_name(sprint, chicago, 42));
  EXPECT_NE(name, router_dns_name(sprint, chicago, 43));
}

TEST(RouterDnsName, SuffixCarriesTheDecodedIsp) {
  // The ISP decoded from an interface name depends only on its router's
  // suffix, so a campaign may decode the suffix once per router.
  const NameDecoder decoder(db(), profiles());
  for (isp::IspId i = 0; i < profiles().size(); ++i) {
    for (transport::CityId c = 0; c < db().size(); c += 11) {
      const auto suffix = router_name_suffix(profiles()[i], db().city(c));
      const auto isp = decoder.decode(suffix).isp;
      ASSERT_EQ(isp, std::optional<isp::IspId>(i)) << suffix;
      for (std::uint64_t salt = 0; salt < 64; salt += 7) {
        EXPECT_EQ(decoder.decode(router_dns_name(suffix, salt)).isp, isp);
      }
    }
  }
}

TEST(NameDecoder, RoundTripsGeneratedNames) {
  const NameDecoder decoder(db(), profiles());
  std::size_t city_hits = 0;
  std::size_t city_total = 0;
  for (isp::IspId i = 0; i < profiles().size(); ++i) {
    for (transport::CityId c = 0; c < db().size(); c += 7) {
      const auto name = router_dns_name(profiles()[i], db().city(c), c * 31 + i);
      const auto decoded = decoder.decode(name);
      ASSERT_TRUE(decoded.isp.has_value()) << name;
      EXPECT_EQ(*decoded.isp, i) << name;
      ++city_total;
      if (decoded.city && *decoded.city == c) ++city_hits;
    }
  }
  // ISP decoding is exact; city decoding tolerates rare code collisions.
  EXPECT_GT(static_cast<double>(city_hits) / static_cast<double>(city_total), 0.9);
}

TEST(NameDecoder, RejectsForeignAndEmpty) {
  const NameDecoder decoder(db(), profiles());
  EXPECT_FALSE(decoder.decode("").isp.has_value());
  EXPECT_FALSE(decoder.decode("singlelabel").isp.has_value());
  const auto foreign = decoder.decode("ae-1.cr2.lonuk.example.org");
  EXPECT_FALSE(foreign.isp.has_value());
  EXPECT_FALSE(foreign.city.has_value());
}

TEST(NameDecoder, DomainWithoutCityStillIdentifiesIsp) {
  const NameDecoder decoder(db(), profiles());
  const auto decoded = decoder.decode("core9.unknownpop.level3.net");
  ASSERT_TRUE(decoded.isp.has_value());
  EXPECT_EQ(profiles()[*decoded.isp].name, "Level 3");
}

TEST(NamingInCampaign, HopsCarryDecodableNames) {
  const auto& scenario = testing::shared_scenario();
  const auto topo =
      L3Topology::from_ground_truth(scenario.truth(), core::Scenario::cities());
  CampaignParams params;
  params.seed = 0x44;
  params.num_probes = 5000;
  const auto campaign = run_campaign(topo, core::Scenario::cities(), params);
  const NameDecoder decoder(core::Scenario::cities(), profiles());
  std::size_t named = 0;
  for (const auto& flow : campaign.flows) {
    for (const auto& hop : flow.hops) {
      if (hop.dns_name.empty()) {
        EXPECT_EQ(hop.isp, isp::kNoIsp);
        continue;
      }
      ++named;
      const auto decoded = decoder.decode(hop.dns_name);
      ASSERT_TRUE(decoded.isp.has_value()) << hop.dns_name;
      EXPECT_EQ(hop.isp, *decoded.isp);
    }
  }
  EXPECT_GT(named, 1000u);
}

}  // namespace
}  // namespace intertubes::traceroute
