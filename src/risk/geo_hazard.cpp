#include "risk/geo_hazard.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace intertubes::risk {

using core::FiberMap;

namespace {

/// One disaster's damage, read from step 1 of the engine's evaluation of
/// its disc.  A disc that cuts nothing reports a neutral impact without
/// evaluating.
HazardImpact impact_of(const sim::CampaignEngine& engine,
                       const transport::RightOfWayRegistry& row,
                       const sim::HazardRegion& region) {
  HazardImpact impact;
  const auto cut = sim::conduits_in_region(engine.map(), row, region);
  impact.conduits_cut = cut.size();
  if (cut.empty()) return impact;

  const sim::TrialPoint hit = engine.evaluate_cuts({cut}).points[1];
  impact.links_hit = hit.links_hit;
  impact.isps_hit = hit.isps_hit;
  impact.connectivity = hit.connected_pair_fraction;
  return impact;
}

}  // namespace

HazardImpact assess_hazard(const FiberMap& map, const transport::RightOfWayRegistry& row,
                           const sim::HazardRegion& region) {
  return impact_of(sim::CampaignEngine(map), row, region);
}

HazardStudy hazard_study(const FiberMap& map, const transport::CityDatabase& cities,
                         const transport::RightOfWayRegistry& row, double radius_km,
                         std::size_t samples, std::uint64_t seed) {
  IT_CHECK(samples > 0);
  Rng rng(mix64(seed ^ 0xdead1357ULL));
  std::vector<double> weights;
  weights.reserve(cities.size());
  for (const auto& city : cities.all()) weights.push_back(static_cast<double>(city.population));

  const sim::CampaignEngine engine(map);
  HazardStudy study;
  RunningStats links_stats;
  RunningStats conduit_stats;
  RunningStats connectivity_stats;
  std::vector<double> links_samples;
  links_samples.reserve(samples);
  std::size_t worst = 0;
  bool have_worst = false;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto region = sim::draw_hazard_region(cities, weights, radius_km, rng);
    const auto impact = impact_of(engine, row, region);
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

sim::HazardRegion worst_case_placement(const FiberMap& map,
                                       const transport::CityDatabase& cities,
                                       const transport::RightOfWayRegistry& row,
                                       double radius_km, double grid_step_km) {
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

  const sim::CampaignEngine engine(map);
  sim::HazardRegion best;
  best.radius_km = radius_km;
  std::size_t best_links = 0;
  for (double lat = min_lat; lat <= max_lat; lat += lat_step) {
    for (double lon = min_lon; lon <= max_lon; lon += lon_step) {
      const sim::HazardRegion region{{lat, lon}, radius_km};
      const std::size_t links_hit = impact_of(engine, row, region).links_hit;
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

  const sim::CampaignEngine engine(map);
  std::vector<double> exposure(map.num_isps(), 0.0);
  for (std::size_t s = 0; s < samples; ++s) {
    const auto cut = sim::conduits_in_region(
        map, row, sim::draw_hazard_region(cities, weights, radius_km, rng));
    if (cut.empty()) continue;
    const auto hit = engine.evaluate_cuts({cut}).isp_links_lost;
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
