#include "traceroute/overlay.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "route/path_engine.hpp"

namespace intertubes::traceroute {

using core::ConduitId;
using core::FiberMap;
using isp::IspId;
using transport::CityId;

namespace {

/// Hop-pair → conduit path lookups over the constructed map, memoized per
/// ordered city pair (the expensive part of the overlay).  The conduit
/// graph is compiled once per overlay: node = city, edge id = conduit id,
/// weight = length_km.  Equal-length paths go to the lowest conduit id,
/// PathEngine's tie rule.
class HopPaths {
 public:
  explicit HopPaths(const FiberMap& map) : engine_(compile(map)) {}

  /// The shortest conduit path a → b; empty when no conduit path joins
  /// them (a city outside the conduit graph touches no conduit).
  const std::vector<ConduitId>& between(CityId a, CityId b) {
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      std::vector<ConduitId> conduits;
      if (a < engine_.num_nodes() && b < engine_.num_nodes()) {
        const route::Path path = engine_.shortest_path(a, b);
        conduits.assign(path.edges.begin(), path.edges.end());
      }
      it = memo_.emplace(key, std::move(conduits)).first;
    }
    return it->second;
  }

 private:
  static route::PathEngine compile(const FiberMap& map) {
    route::NodeId num_nodes = 0;
    std::vector<route::EdgeSpec> edges;
    edges.reserve(map.conduits().size());
    for (const auto& c : map.conduits()) {
      num_nodes = std::max(num_nodes, std::max(c.a, c.b) + 1);
      edges.push_back({c.a, c.b, c.length_km});
    }
    return route::PathEngine(num_nodes, std::move(edges));
  }

  route::PathEngine engine_;
  std::unordered_map<std::uint64_t, std::vector<ConduitId>> memo_;
};

}  // namespace

OverlayResult overlay_campaign(const FiberMap& map, const transport::CityDatabase& cities,
                               const Campaign& campaign) {
  OverlayResult result;
  result.usage.assign(map.conduits().size(), {});
  std::vector<std::set<IspId>> observed(map.conduits().size());
  HopPaths paths(map);

  for (const auto& flow : campaign.flows) {
    const bool west_to_east =
        cities.city(flow.src).location.lon_deg < cities.city(flow.dst).location.lon_deg;
    for (std::size_t h = 0; h + 1 < flow.hops.size(); ++h) {
      const auto& from = flow.hops[h];
      const auto& to = flow.hops[h + 1];
      if (from.city == to.city) continue;  // interconnect inside one city
      const auto& path = paths.between(from.city, to.city);
      if (path.empty()) {
        result.unmapped_segments += flow.count;
        continue;
      }
      result.mapped_segments += flow.count;
      for (ConduitId cid : path) {
        auto& usage = result.usage[cid];
        if (west_to_east) {
          usage.probes_west_east += flow.count;
        } else {
          usage.probes_east_west += flow.count;
        }
        // Naming hints on either end of the layer-3 segment attribute the
        // segment's conduits to that ISP.
        if (from.isp != isp::kNoIsp) observed[cid].insert(from.isp);
        if (to.isp != isp::kNoIsp) observed[cid].insert(to.isp);
      }
    }
  }

  for (ConduitId cid = 0; cid < result.usage.size(); ++cid) {
    result.usage[cid].observed_isps.assign(observed[cid].begin(), observed[cid].end());
  }
  return result;
}

std::vector<RankedConduit> OverlayResult::top_conduits(Direction dir, std::size_t n) const {
  std::vector<RankedConduit> ranked;
  ranked.reserve(usage.size());
  for (ConduitId cid = 0; cid < usage.size(); ++cid) {
    const std::uint64_t probes =
        dir == Direction::WestToEast ? usage[cid].probes_west_east : usage[cid].probes_east_west;
    if (probes > 0) ranked.push_back({cid, probes});
  }
  std::sort(ranked.begin(), ranked.end(), [](const RankedConduit& x, const RankedConduit& y) {
    if (x.probes != y.probes) return x.probes > y.probes;
    return x.conduit < y.conduit;
  });
  if (ranked.size() > n) ranked.resize(n);
  return ranked;
}

std::vector<std::pair<IspId, std::size_t>> OverlayResult::isps_by_conduits_used(
    std::size_t num_isps) const {
  std::vector<std::size_t> counts(num_isps, 0);
  for (const auto& u : usage) {
    for (IspId isp_id : u.observed_isps) {
      if (isp_id < num_isps) ++counts[isp_id];
    }
  }
  std::vector<std::pair<IspId, std::size_t>> out;
  for (IspId i = 0; i < num_isps; ++i) {
    if (counts[i] > 0) out.emplace_back(i, counts[i]);
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    if (x.second != y.second) return x.second > y.second;
    return x.first < y.first;
  });
  return out;
}

OverlayAccuracy evaluate_overlay_accuracy(const FiberMap& map, const Campaign& campaign) {
  OverlayAccuracy accuracy;
  HopPaths paths(map);

  const auto sort_unique = [](std::vector<transport::CorridorId>& ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  };
  double precision_sum = 0.0;
  double recall_sum = 0.0;
  double exact_sum = 0.0;
  std::uint64_t weight_total = 0;
  // Corridor sets as sorted, deduplicated vectors, reused across flows.
  std::vector<transport::CorridorId> predicted;
  std::vector<transport::CorridorId> truth;
  for (const auto& flow : campaign.flows) {
    if (flow.true_corridors.empty()) continue;
    // Predicted corridor set: attribution of every observed hop segment.
    predicted.clear();
    for (std::size_t h = 0; h + 1 < flow.hops.size(); ++h) {
      if (flow.hops[h].city == flow.hops[h + 1].city) continue;
      for (ConduitId cid : paths.between(flow.hops[h].city, flow.hops[h + 1].city)) {
        predicted.push_back(map.conduit(cid).corridor);
      }
    }
    sort_unique(predicted);
    truth.assign(flow.true_corridors.begin(), flow.true_corridors.end());
    sort_unique(truth);
    // |predicted ∩ truth| in one merge walk.
    std::size_t correct = 0;
    for (auto p = predicted.begin(), t = truth.begin(); p != predicted.end() && t != truth.end();) {
      if (*p < *t) {
        ++p;
      } else if (*t < *p) {
        ++t;
      } else {
        ++correct;
        ++p;
        ++t;
      }
    }
    const double precision =
        predicted.empty() ? 0.0
                          : static_cast<double>(correct) / static_cast<double>(predicted.size());
    const double recall = static_cast<double>(correct) / static_cast<double>(truth.size());
    precision_sum += precision * static_cast<double>(flow.count);
    recall_sum += recall * static_cast<double>(flow.count);
    if (predicted == truth) exact_sum += static_cast<double>(flow.count);
    weight_total += flow.count;
  }
  if (weight_total > 0) {
    const double w = static_cast<double>(weight_total);
    accuracy.corridor_precision = precision_sum / w;
    accuracy.corridor_recall = recall_sum / w;
    accuracy.flows_fully_correct = exact_sum / w;
    accuracy.probes_evaluated = weight_total;
  }
  return accuracy;
}

SharingCdfData sharing_before_after(const FiberMap& map, const OverlayResult& overlay) {
  SharingCdfData data;
  for (const auto& conduit : map.conduits()) {
    data.physical_only.push_back(static_cast<double>(conduit.tenants.size()));
    std::set<IspId> merged(conduit.tenants.begin(), conduit.tenants.end());
    merged.insert(overlay.usage[conduit.id].observed_isps.begin(),
                  overlay.usage[conduit.id].observed_isps.end());
    data.with_observed.push_back(static_cast<double>(merged.size()));
  }
  return data;
}

}  // namespace intertubes::traceroute
