#include "sim/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"
#include "util/connectivity.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace intertubes::sim {

using core::ConduitId;
using core::LinkId;
using transport::CityId;

std::string stressor_name(const Stressor& stressor) {
  switch (stressor.kind) {
    case StressorKind::RandomCuts:
      return "random cuts";
    case StressorKind::TargetedCuts:
      return "targeted cuts (most shared first)";
    case StressorKind::CorrelatedHazards:
      return "correlated hazards (r=" + format_double(stressor.hazard_radius_km, 0) + " km)";
  }
  return "unknown";
}

namespace {

/// Per-kind salt so the three stressors draw decorrelated substreams from
/// the same campaign seed.
std::uint64_t stressor_salt(StressorKind kind) {
  switch (kind) {
    case StressorKind::RandomCuts:
      return 0x5eed0c75ULL;
    case StressorKind::TargetedCuts:
      return 0x7a26e7edULL;
    case StressorKind::CorrelatedHazards:
      return 0xd15a57e2ULL;
  }
  return 0;
}

}  // namespace

std::vector<ConduitId> conduits_in_region(const core::FiberMap& map,
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

HazardRegion draw_hazard_region(const transport::CityDatabase& cities,
                                const std::vector<double>& weights, double radius_km, Rng& rng) {
  const auto& anchor = cities.city(static_cast<CityId>(rng.weighted_pick(weights)));
  const double distance_km = std::abs(rng.normal(0.0, radius_km));
  const double bearing_deg = rng.uniform(0.0, 360.0);
  return {geo::destination(anchor.location, bearing_deg, distance_km), radius_km};
}

CampaignEngine::CampaignEngine(const core::FiberMap& map, const transport::CityDatabase* cities,
                               const transport::RightOfWayRegistry* row,
                               std::vector<std::uint64_t> probes_per_conduit)
    : map_(map), cities_(cities), row_(row) {
  const std::size_t num_conduits = map.conduits().size();
  IT_CHECK_MSG(probes_per_conduit.empty() || probes_per_conduit.size() == num_conduits,
               "probe vector must match the conduit count");

  num_nodes_ = map.nodes().size();
  conduit_ends_ = map.conduit_node_indexes();

  // Counting sort of (conduit, link) incidences by conduit; links keep
  // their order within each conduit's row.
  link_offsets_.assign(num_conduits + 1, 0);
  link_isp_.reserve(map.links().size());
  for (const auto& link : map.links()) {
    link_isp_.push_back(link.isp);
    for (ConduitId cid : link.conduits) ++link_offsets_[cid + 1];
  }
  for (std::size_t c = 0; c < num_conduits; ++c) link_offsets_[c + 1] += link_offsets_[c];
  link_ids_.resize(link_offsets_.back());
  std::vector<std::uint32_t> fill(link_offsets_.begin(), link_offsets_.end() - 1);
  for (const auto& link : map.links()) {
    for (ConduitId cid : link.conduits) link_ids_[fill[cid]++] = link.id;
  }

  targeted_order_.resize(num_conduits);
  std::iota(targeted_order_.begin(), targeted_order_.end(), ConduitId{0});
  std::stable_sort(targeted_order_.begin(), targeted_order_.end(),
                   [&map](ConduitId x, ConduitId y) {
                     return map.conduit(x).tenants.size() > map.conduit(y).tenants.size();
                   });

  conduit_weight_.resize(num_conduits, 0.0);
  for (ConduitId c = 0; c < num_conduits; ++c) {
    const auto tenants = static_cast<double>(map.conduit(c).tenants.size());
    conduit_weight_[c] =
        probes_per_conduit.empty()
            ? tenants
            : tenants * std::log2(1.0 + static_cast<double>(probes_per_conduit[c]));
    total_weight_ += conduit_weight_[c];
  }

  if (cities_) {
    city_weights_.reserve(cities_->size());
    for (const auto& city : cities_->all()) {
      city_weights_.push_back(static_cast<double>(city.population));
    }
  }
}

std::vector<std::vector<ConduitId>> CampaignEngine::draw_cuts(const Stressor& stressor,
                                                              std::uint64_t seed,
                                                              std::size_t trial) const {
  const std::size_t num_conduits = map_.conduits().size();
  Rng rng = substream_rng(seed ^ stressor_salt(stressor.kind), trial);

  std::vector<ConduitId> order;
  if (stressor.kind == StressorKind::RandomCuts) {
    order.resize(num_conduits);
    std::iota(order.begin(), order.end(), ConduitId{0});
    rng.shuffle(order);
  } else if (stressor.kind == StressorKind::TargetedCuts) {
    order = targeted_order_;
  } else {
    IT_CHECK_MSG(cities_ && row_,
                 "CorrelatedHazards needs a CityDatabase and RightOfWayRegistry");
  }

  std::vector<std::vector<ConduitId>> cuts(stressor.steps);
  for (std::size_t step = 1; step <= stressor.steps; ++step) {
    if (stressor.kind == StressorKind::CorrelatedHazards) {
      cuts[step - 1] = conduits_in_region(
          map_, *row_,
          draw_hazard_region(*cities_, city_weights_, stressor.hazard_radius_km, rng));
    } else if (step - 1 < order.size()) {
      cuts[step - 1].push_back(order[step - 1]);
    }
  }
  return cuts;
}

TrialResult CampaignEngine::run_trial(const Stressor& stressor, std::uint64_t seed,
                                      std::size_t trial) const {
  return evaluate_cuts(draw_cuts(stressor, seed, trial));
}

TrialResult CampaignEngine::evaluate_cuts(
    const std::vector<std::vector<ConduitId>>& cut_sets) const {
  const std::size_t num_conduits = map_.conduits().size();
  const std::size_t steps = cut_sets.size();

  TrialResult result;
  result.isp_links_lost.assign(map_.num_isps(), 0);
  result.points.resize(steps + 1);

  // A conduit that a later step strikes again keeps its first step.
  std::vector<std::uint32_t> first_death(num_conduits, kNeverDies);
  std::vector<char> link_hit(link_isp_.size(), 0);
  std::vector<char> isp_hit(map_.num_isps(), 0);
  std::size_t conduits_down = 0;
  std::size_t links_hit = 0;
  std::size_t isps_hit = 0;
  double weight_lost = 0.0;

  auto kill = [&](ConduitId cid, std::size_t step) {
    IT_CHECK(cid < num_conduits);
    if (first_death[cid] != kNeverDies) return;
    first_death[cid] = static_cast<std::uint32_t>(step);
    ++conduits_down;
    weight_lost += conduit_weight_[cid];
    for (std::uint32_t k = link_offsets_[cid]; k < link_offsets_[cid + 1]; ++k) {
      const LinkId lid = link_ids_[k];
      if (link_hit[lid]) continue;
      link_hit[lid] = 1;
      ++links_hit;
      ++result.isp_links_lost[link_isp_[lid]];
      if (!isp_hit[link_isp_[lid]]) {
        isp_hit[link_isp_[lid]] = 1;
        ++isps_hit;
      }
    }
  };

  for (std::size_t step = 0; step <= steps; ++step) {
    if (step > 0) {
      for (ConduitId cid : cut_sets[step - 1]) kill(cid, step);
    }
    TrialPoint& point = result.points[step];
    point.conduits_down = conduits_down;
    point.links_hit = links_hit;
    point.isps_hit = isps_hit;
    point.weight_lost = total_weight_ > 0.0 ? weight_lost / total_weight_ : 0.0;
  }

  Connectivity sets;
  sets.read_steps_in_reverse(
      num_nodes_, first_death, steps, [this](std::uint32_t cid) { return conduit_ends_[cid]; },
      [&result](std::size_t step, const Connectivity& graph) {
        result.points[step].components = graph.components();
        result.points[step].connected_pair_fraction = graph.pair_fraction();
      });
  return result;
}

CampaignReport CampaignEngine::run(const CampaignConfig& config, Executor& executor) const {
  IT_CHECK(config.trials >= 1);
  Stressor stressor = config.stressor;
  if (stressor.kind != StressorKind::CorrelatedHazards) {
    stressor.steps = std::min(stressor.steps, map_.conduits().size());
  }

  const auto trials = executor.parallel_map<TrialResult>(
      config.trials,
      [&](std::size_t trial) { return run_trial(stressor, config.seed, trial); });

  CampaignReport report = aggregate_trials(trials, map_.num_isps(), executor);
  report.stressor = stressor_name(stressor);
  report.seed = config.seed;
  report.trials = config.trials;
  report.steps = stressor.steps;
  return report;
}

CampaignReport CampaignEngine::run(const CampaignConfig& config) const {
  return run(config, default_executor());
}

}  // namespace intertubes::sim
