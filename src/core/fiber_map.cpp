#include "core/fiber_map.hpp"

#include <algorithm>
#include <set>

#include "isp/ground_truth.hpp"
#include "util/check.hpp"

namespace intertubes::core {

using isp::IspId;
using transport::CityId;
using transport::Corridor;
using transport::CorridorId;

const std::vector<ConduitId> FiberMap::kEmpty{};

ConduitId FiberMap::ensure_conduit(const Corridor& corridor, Provenance provenance) {
  const auto it = by_corridor_.find(corridor.id);
  if (it != by_corridor_.end()) return it->second;
  Conduit c;
  c.id = static_cast<ConduitId>(conduits_.size());
  c.corridor = corridor.id;
  c.a = corridor.a;
  c.b = corridor.b;
  c.length_km = corridor.length_km;
  c.provenance = provenance;
  by_corridor_[corridor.id] = c.id;
  if (!adjacency_.empty()) {
    // Keep the lazily built adjacency coherent.
    const std::size_t needed = std::max(c.a, c.b) + 1;
    if (adjacency_.size() < needed) adjacency_.resize(needed);
    adjacency_[c.a].push_back(c.id);
    adjacency_[c.b].push_back(c.id);
  }
  conduits_.push_back(std::move(c));
  return conduits_.back().id;
}

std::optional<ConduitId> FiberMap::conduit_for_corridor(CorridorId corridor) const {
  const auto it = by_corridor_.find(corridor);
  if (it == by_corridor_.end()) return std::nullopt;
  return it->second;
}

void FiberMap::add_tenant(ConduitId conduit, IspId isp) {
  IT_CHECK(conduit < conduits_.size());
  IT_CHECK(isp < num_isps_);
  auto& tenants = conduits_[conduit].tenants;
  const auto pos = std::lower_bound(tenants.begin(), tenants.end(), isp);
  if (pos == tenants.end() || *pos != isp) tenants.insert(pos, isp);
}

void FiberMap::mark_validated(ConduitId conduit) {
  IT_CHECK(conduit < conduits_.size());
  conduits_[conduit].validated = true;
}

LinkId FiberMap::add_link(IspId isp, CityId a, CityId b, const std::vector<ConduitId>& conduits,
                          bool geocoded) {
  IT_CHECK(isp < num_isps_);
  IT_CHECK(!conduits.empty());
  Link link;
  link.id = static_cast<LinkId>(links_.size());
  link.isp = isp;
  link.a = a;
  link.b = b;
  link.conduits = conduits;
  link.geocoded = geocoded;
  for (ConduitId cid : conduits) {
    IT_CHECK(cid < conduits_.size());
    link.length_km += conduits_[cid].length_km;
    add_tenant(cid, isp);
  }
  links_.push_back(std::move(link));
  return links_.back().id;
}

void FiberMap::replace_link_conduits(LinkId id, const std::vector<ConduitId>& conduits) {
  IT_CHECK(id < links_.size());
  IT_CHECK(!conduits.empty());
  Link& link = links_[id];
  link.conduits = conduits;
  link.length_km = 0.0;
  for (ConduitId cid : conduits) {
    IT_CHECK(cid < conduits_.size());
    link.length_km += conduits_[cid].length_km;
    add_tenant(cid, link.isp);
  }
}

const Conduit& FiberMap::conduit(ConduitId id) const {
  IT_CHECK(id < conduits_.size());
  return conduits_[id];
}

const Link& FiberMap::link(LinkId id) const {
  IT_CHECK(id < links_.size());
  return links_[id];
}

const std::vector<ConduitId>& FiberMap::conduits_at(CityId c) const {
  if (adjacency_.empty()) prepare_for_concurrent_reads();
  if (c >= adjacency_.size()) return kEmpty;
  return adjacency_[c];
}

void FiberMap::prepare_for_concurrent_reads() const {
  if (!adjacency_.empty()) return;
  std::size_t max_city = 0;
  for (const auto& conduit : conduits_) {
    max_city = std::max<std::size_t>({max_city, conduit.a, conduit.b});
  }
  adjacency_.resize(max_city + 1);
  for (const auto& conduit : conduits_) {
    adjacency_[conduit.a].push_back(conduit.id);
    adjacency_[conduit.b].push_back(conduit.id);
  }
}

std::vector<CityId> FiberMap::nodes() const {
  // One flag per city id up to the largest endpoint, read back in id order.
  std::vector<char> is_node;
  for (const auto& c : conduits_) {
    const std::size_t top = std::max(c.a, c.b);
    if (top >= is_node.size()) is_node.resize(top + 1, 0);
    is_node[c.a] = is_node[c.b] = 1;
  }
  std::vector<CityId> cities;
  for (CityId id = 0; id < is_node.size(); ++id) {
    if (is_node[id]) cities.push_back(id);
  }
  return cities;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> FiberMap::conduit_node_indexes() const {
  const auto cities = nodes();
  std::vector<std::uint32_t> index(cities.empty() ? 0 : cities.back() + 1);
  for (std::size_t i = 0; i < cities.size(); ++i) index[cities[i]] = static_cast<std::uint32_t>(i);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ends;
  ends.reserve(conduits_.size());
  for (const auto& c : conduits_) ends.emplace_back(index[c.a], index[c.b]);
  return ends;
}

std::vector<LinkId> FiberMap::links_of(IspId isp) const {
  std::vector<LinkId> out;
  for (const auto& link : links_) {
    if (link.isp == isp) out.push_back(link.id);
  }
  return out;
}

std::vector<CityId> FiberMap::nodes_of(IspId isp) const {
  std::set<CityId> cities;
  for (const auto& link : links_) {
    if (link.isp == isp) {
      cities.insert(link.a);
      cities.insert(link.b);
    }
  }
  return {cities.begin(), cities.end()};
}

std::vector<ConduitId> FiberMap::conduits_of(IspId isp) const {
  std::vector<ConduitId> out;
  for (const auto& c : conduits_) {
    if (std::binary_search(c.tenants.begin(), c.tenants.end(), isp)) out.push_back(c.id);
  }
  return out;
}

FiberMap map_from_ground_truth(const isp::GroundTruth& truth,
                               const transport::RightOfWayRegistry& row) {
  FiberMap map(truth.num_isps());
  for (const auto& link : truth.links()) {
    std::vector<ConduitId> conduits;
    conduits.reserve(link.corridors.size());
    for (CorridorId cid : link.corridors) {
      conduits.push_back(map.ensure_conduit(row.corridor(cid), Provenance::GeocodedMap));
    }
    map.add_link(link.isp, link.a, link.b, conduits, /*geocoded=*/true);
  }
  return map;
}

MapStats compute_stats(const FiberMap& map) {
  MapStats stats;
  stats.nodes = map.nodes().size();
  stats.links = map.links().size();
  stats.conduits = map.conduits().size();
  for (const auto& c : map.conduits()) {
    if (c.validated) ++stats.validated_conduits;
    stats.total_conduit_km += c.length_km;
  }
  stats.nodes_per_isp.resize(map.num_isps(), 0);
  stats.links_per_isp.resize(map.num_isps(), 0);
  for (IspId isp = 0; isp < map.num_isps(); ++isp) {
    stats.nodes_per_isp[isp] = map.nodes_of(isp).size();
    stats.links_per_isp[isp] = map.links_of(isp).size();
  }
  return stats;
}

}  // namespace intertubes::core
