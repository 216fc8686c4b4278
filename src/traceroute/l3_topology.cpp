#include "traceroute/l3_topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>

#include "util/check.hpp"

namespace intertubes::traceroute {

using isp::IspId;
using isp::IspKind;
using transport::CityId;
using transport::CorridorId;

const std::vector<RouterIdx> L3Topology::kNoRouters{};
const std::vector<std::uint32_t> L3Topology::kNoEdges{};

namespace {
constexpr std::uint32_t kNoViaEdge = 0xffffffffu;

std::uint64_t isp_city_key(IspId isp, CityId city) noexcept {
  return (static_cast<std::uint64_t>(isp) << 32) | city;
}
}  // namespace

L3Topology L3Topology::from_ground_truth(const isp::GroundTruth& truth,
                                         const transport::CityDatabase& cities,
                                         const PeeringParams& params) {
  L3Topology topo;

  // Routers: one per (ISP, link endpoint city).
  auto ensure_router = [&topo](IspId isp, CityId city) {
    const auto key = isp_city_key(isp, city);
    const auto it = topo.by_isp_city_.find(key);
    if (it != topo.by_isp_city_.end()) return it->second;
    const auto idx = static_cast<RouterIdx>(topo.routers_.size());
    topo.routers_.push_back({isp, city});
    topo.by_isp_city_[key] = idx;
    return idx;
  };

  for (const auto& link : truth.links()) {
    const RouterIdx u = ensure_router(link.isp, link.a);
    const RouterIdx v = ensure_router(link.isp, link.b);
    L3Edge e;
    e.u = u;
    e.v = v;
    e.length_km = link.length_km;
    e.peering = false;
    e.corridors = link.corridors;
    topo.edges_.push_back(std::move(e));
  }

  // City index.
  std::size_t max_city = 0;
  for (const auto& r : topo.routers_) max_city = std::max<std::size_t>(max_city, r.city);
  topo.by_city_.resize(max_city + 1);
  for (RouterIdx r = 0; r < topo.routers_.size(); ++r) {
    topo.by_city_[topo.routers_[r].city].push_back(r);
  }

  // Peering: at each city, connect co-located routers according to policy.
  const auto& profiles = truth.profiles();
  for (const auto& colocated : topo.by_city_) {
    for (std::size_t i = 0; i < colocated.size(); ++i) {
      for (std::size_t j = i + 1; j < colocated.size(); ++j) {
        const Router& ri = topo.routers_[colocated[i]];
        const Router& rj = topo.routers_[colocated[j]];
        const bool both_tier1 =
            profiles[ri.isp].kind == IspKind::Tier1 && profiles[rj.isp].kind == IspKind::Tier1;
        const bool any_tier1 =
            profiles[ri.isp].kind == IspKind::Tier1 || profiles[rj.isp].kind == IspKind::Tier1;
        const auto population = cities.city(ri.city).population;
        bool connect = false;
        if (both_tier1) {
          connect = population >= params.tier1_peering_min_pop;
        } else if (any_tier1) {
          connect = true;  // customer/transit attachment
        } else {
          // Two non-tier-1s interconnect only at major cities (IXstyle).
          connect = population >= 2 * params.tier1_peering_min_pop;
        }
        if (!connect) continue;
        L3Edge e;
        e.u = colocated[i];
        e.v = colocated[j];
        e.length_km = 0.0;
        e.peering = true;
        topo.edges_.push_back(std::move(e));
      }
    }
  }

  topo.adjacency_.resize(topo.routers_.size());
  for (std::uint32_t eid = 0; eid < topo.edges_.size(); ++eid) {
    topo.adjacency_[topo.edges_[eid].u].push_back(eid);
    topo.adjacency_[topo.edges_[eid].v].push_back(eid);
  }
  return topo;
}

const std::vector<std::uint32_t>& L3Topology::edges_at(RouterIdx r) const {
  if (r >= adjacency_.size()) return kNoEdges;
  return adjacency_[r];
}

std::optional<RouterIdx> L3Topology::router_at(IspId isp, CityId city) const {
  const auto it = by_isp_city_.find(isp_city_key(isp, city));
  if (it == by_isp_city_.end()) return std::nullopt;
  return it->second;
}

const std::vector<RouterIdx>& L3Topology::routers_in(CityId city) const {
  if (city >= by_city_.size()) return kNoRouters;
  return by_city_[city];
}

L3Routes L3Topology::routes_from(RouterIdx src, std::span<const CityId> dst_cities,
                                 const PeeringParams& params) const {
  IT_CHECK(src < routers_.size());
  L3Routes out;
  out.topo_ = this;
  out.src_ = src;
  out.via_.assign(routers_.size(), kNoViaEdge);
  out.goal_.assign(by_city_.size(), kNoRouter);
  // Destination cities none of whose routers has settled yet.  A city
  // without routers can never settle one, so it is not waited for.
  std::vector<char> waiting(by_city_.size(), 0);
  std::size_t remaining = 0;
  for (const CityId city : dst_cities) {
    if (city < waiting.size() && !waiting[city]) {
      waiting[city] = 1;
      ++remaining;
    }
  }

  // Routers settle in (dist, router) order and every weight is
  // non-negative, so the search for one city is a prefix of this one, and
  // a settled router's edge is final.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(routers_.size(), kInf);
  using Entry = std::pair<double, RouterIdx>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  dist[src] = 0.0;
  queue.push({0.0, src});
  while (remaining > 0 && !queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;
    const CityId city = routers_[u].city;
    if (waiting[city]) {
      waiting[city] = 0;
      out.goal_[city] = u;
      if (--remaining == 0) break;
    }
    for (std::uint32_t eid : adjacency_[u]) {
      const auto& e = edges_[eid];
      const RouterIdx v = (e.u == u) ? e.v : e.u;
      const double w = e.peering ? params.peering_penalty_km : e.length_km;
      const double nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        out.via_[v] = eid;
        queue.push({nd, v});
      }
    }
  }
  return out;
}

std::vector<RouterIdx> L3Topology::route(RouterIdx src, CityId dst_city,
                                         const PeeringParams& params) const {
  return routes_from(src, {&dst_city, 1}, params).route(dst_city);
}

std::vector<RouterIdx> L3Routes::route(CityId city) const {
  std::vector<RouterIdx> path;
  if (city >= goal_.size() || goal_[city] == kNoRouter) return path;
  for (RouterIdx cur = goal_[city]; cur != src_;) {
    path.push_back(cur);
    const L3Edge& e = topo_->edges()[via_[cur]];
    cur = (e.u == cur) ? e.v : e.u;
  }
  path.push_back(src_);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<CorridorId> L3Routes::corridors(CityId city) const {
  // Collect the route back to front, each edge's corridors oriented toward
  // the source, then reverse the whole list.
  std::vector<CorridorId> out;
  if (city >= goal_.size() || goal_[city] == kNoRouter) return out;
  for (RouterIdx cur = goal_[city]; cur != src_;) {
    const L3Edge& e = topo_->edges()[via_[cur]];
    // Corridor lists are stored u→v.
    if (e.v == cur) {
      out.insert(out.end(), e.corridors.rbegin(), e.corridors.rend());
      cur = e.u;
    } else {
      out.insert(out.end(), e.corridors.begin(), e.corridors.end());
      cur = e.v;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace intertubes::traceroute
