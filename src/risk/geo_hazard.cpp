#include "risk/geo_hazard.hpp"

#include <algorithm>
#include <set>

#include "util/check.hpp"
#include "util/connectivity.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace intertubes::risk {

using core::ConduitId;
using core::FiberMap;
using transport::CityId;

std::vector<ConduitId> conduits_in_region(const FiberMap& map,
                                          const transport::RightOfWayRegistry& row,
                                          const HazardRegion& region) {
  IT_CHECK(region.radius_km > 0.0);
  std::vector<ConduitId> hit;
  for (const auto& conduit : map.conduits()) {
    const auto& path = row.corridor(conduit.corridor).path;
    // Cheap reject via the expanded bounding box, then exact distance.
    if (!path.bounds().expanded_km(region.radius_km).contains(region.center)) continue;
    if (path.distance_to_km(region.center) <= region.radius_km) hit.push_back(conduit.id);
  }
  return hit;
}

HazardImpact assess_hazard(const FiberMap& map, const transport::RightOfWayRegistry& row,
                           const HazardRegion& region) {
  HazardImpact impact;
  const auto cut = conduits_in_region(map, row, region);
  impact.conduits_cut = cut.size();
  if (cut.empty()) return impact;

  std::vector<char> dead(map.conduits().size(), 0);
  for (ConduitId cid : cut) dead[cid] = 1;

  std::set<isp::IspId> isps;
  for (const auto& link : map.links()) {
    for (ConduitId cid : link.conduits) {
      if (dead[cid]) {
        ++impact.links_hit;
        isps.insert(link.isp);
        break;
      }
    }
  }
  impact.isps_hit = isps.size();

  const auto ends = map.conduit_node_indexes();
  Connectivity sets(map.nodes().size());
  for (ConduitId cid = 0; cid < ends.size(); ++cid) {
    if (!dead[cid]) sets.unite(ends[cid].first, ends[cid].second);
  }
  impact.connectivity = sets.pair_fraction();
  return impact;
}

HazardStudy hazard_study(const FiberMap& map, const transport::CityDatabase& cities,
                         const transport::RightOfWayRegistry& row, double radius_km,
                         std::size_t samples, std::uint64_t seed) {
  IT_CHECK(samples > 0);
  Rng rng(mix64(seed ^ 0xdead1357ULL));
  std::vector<double> weights;
  weights.reserve(cities.size());
  for (const auto& city : cities.all()) weights.push_back(static_cast<double>(city.population));

  HazardStudy study;
  RunningStats links_stats;
  RunningStats conduit_stats;
  RunningStats connectivity_stats;
  std::vector<double> links_samples;
  links_samples.reserve(samples);
  std::size_t worst = 0;
  bool have_worst = false;
  for (std::size_t s = 0; s < samples; ++s) {
    // A disaster centred near (not exactly on) a population centre.
    const auto anchor = cities.city(static_cast<CityId>(rng.weighted_pick(weights)));
    HazardRegion region;
    region.center = geo::destination(anchor.location, rng.uniform(0.0, 360.0),
                                     std::abs(rng.normal(0.0, radius_km)));
    region.radius_km = radius_km;
    const auto impact = assess_hazard(map, row, region);
    links_stats.add(static_cast<double>(impact.links_hit));
    conduit_stats.add(static_cast<double>(impact.conduits_cut));
    connectivity_stats.add(impact.connectivity);
    links_samples.push_back(static_cast<double>(impact.links_hit));
    if (!have_worst || impact.links_hit > worst) {
      worst = impact.links_hit;
      have_worst = true;
      study.worst_region = region;
      study.worst_impact = impact;
    }
  }
  study.mean_links_hit = links_stats.mean();
  study.p95_links_hit = percentile(links_samples, 95.0);
  study.mean_conduits_cut = conduit_stats.mean();
  study.mean_connectivity = connectivity_stats.mean();
  return study;
}

HazardRegion worst_case_placement(const FiberMap& map, const transport::CityDatabase& cities,
                                  const transport::RightOfWayRegistry& row, double radius_km,
                                  double grid_step_km) {
  IT_CHECK(grid_step_km > 0.0);
  // Extent of the map: bounding box of all cities, padded.
  double min_lat = 90.0, max_lat = -90.0, min_lon = 180.0, max_lon = -180.0;
  for (const auto& city : cities.all()) {
    min_lat = std::min(min_lat, city.location.lat_deg);
    max_lat = std::max(max_lat, city.location.lat_deg);
    min_lon = std::min(min_lon, city.location.lon_deg);
    max_lon = std::max(max_lon, city.location.lon_deg);
  }
  const double lat_step = grid_step_km / 111.0;
  const double lon_step = grid_step_km / 85.0;  // ~mid-US latitude

  HazardRegion best;
  best.radius_km = radius_km;
  std::size_t best_links = 0;
  for (double lat = min_lat; lat <= max_lat; lat += lat_step) {
    for (double lon = min_lon; lon <= max_lon; lon += lon_step) {
      HazardRegion region;
      region.center = {lat, lon};
      region.radius_km = radius_km;
      // Cheap pre-count on conduits, full assess only if promising.
      const auto cut = conduits_in_region(map, row, region);
      if (cut.empty()) continue;
      std::vector<char> dead(map.conduits().size(), 0);
      for (ConduitId cid : cut) dead[cid] = 1;
      std::size_t links_hit = 0;
      for (const auto& link : map.links()) {
        for (ConduitId cid : link.conduits) {
          if (dead[cid]) {
            ++links_hit;
            break;
          }
        }
      }
      if (links_hit > best_links) {
        best_links = links_hit;
        best = region;
      }
    }
  }
  return best;
}

std::vector<double> isp_hazard_exposure(const FiberMap& map,
                                        const transport::CityDatabase& cities,
                                        const transport::RightOfWayRegistry& row,
                                        double radius_km, std::size_t samples,
                                        std::uint64_t seed) {
  IT_CHECK(samples > 0);
  Rng rng(mix64(seed ^ 0x15b0f00dULL));
  std::vector<double> weights;
  for (const auto& city : cities.all()) weights.push_back(static_cast<double>(city.population));

  std::vector<std::size_t> total_links(map.num_isps(), 0);
  for (const auto& link : map.links()) ++total_links[link.isp];

  std::vector<double> exposure(map.num_isps(), 0.0);
  for (std::size_t s = 0; s < samples; ++s) {
    const auto anchor = cities.city(static_cast<CityId>(rng.weighted_pick(weights)));
    HazardRegion region;
    region.center = geo::destination(anchor.location, rng.uniform(0.0, 360.0),
                                     std::abs(rng.normal(0.0, radius_km)));
    region.radius_km = radius_km;
    const auto cut = conduits_in_region(map, row, region);
    if (cut.empty()) continue;
    std::vector<char> dead(map.conduits().size(), 0);
    for (ConduitId cid : cut) dead[cid] = 1;
    std::vector<std::size_t> hit(map.num_isps(), 0);
    for (const auto& link : map.links()) {
      for (ConduitId cid : link.conduits) {
        if (dead[cid]) {
          ++hit[link.isp];
          break;
        }
      }
    }
    for (isp::IspId i = 0; i < map.num_isps(); ++i) {
      if (total_links[i] > 0) {
        exposure[i] += static_cast<double>(hit[i]) / static_cast<double>(total_links[i]);
      }
    }
  }
  for (double& e : exposure) e /= static_cast<double>(samples);
  return exposure;
}

}  // namespace intertubes::risk
