// Layer-3 topology over the ground-truth physical world.
//
// Routers are (ISP, city) pairs at ISP POPs; intra-ISP adjacencies are the
// ISP's deployed long-haul links (which ride corridors); inter-ISP
// adjacencies are peering/transit interconnects at cities where both
// networks have a POP.  Traceroute campaigns route over this graph — over
// *reality*, not over the constructed map — so that the overlay step can
// genuinely discover tenants the mapping pipeline missed.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "isp/ground_truth.hpp"

namespace intertubes::traceroute {

using RouterIdx = std::uint32_t;
inline constexpr RouterIdx kNoRouter = 0xffffffffu;

struct Router {
  isp::IspId isp = isp::kNoIsp;
  transport::CityId city = transport::kNoCity;
};

struct L3Edge {
  RouterIdx u = kNoRouter;
  RouterIdx v = kNoRouter;
  double length_km = 0.0;                          ///< fiber distance
  bool peering = false;                            ///< inter-ISP interconnect
  std::vector<transport::CorridorId> corridors;    ///< empty for peering edges
};

struct PeeringParams {
  /// Tier-1s interconnect with each other at cities of at least this
  /// population; everyone interconnects with tier-1s wherever co-located.
  std::uint32_t tier1_peering_min_pop = 250000;
  /// Routing cost of crossing an interconnect, in km-equivalents.  Keeps
  /// paths valley-free-ish without a full BGP model.
  double peering_penalty_km = 350.0;
};

class L3Topology;

/// The routes found by one search from a source router toward a set of
/// destination cities (L3Topology::routes_from).  It reads the edges of
/// the topology that made it, which must outlive it.
class L3Routes {
 public:
  /// Shortest route from the source to the first router of `city` that the
  /// search settled, as a router sequence; empty when `city` is unreachable
  /// or was not a destination of the search.
  std::vector<RouterIdx> route(transport::CityId city) const;

  /// The corridors under route(city): the corridor lists of the edges the
  /// search reached each router by, oriented along the route.
  std::vector<transport::CorridorId> corridors(transport::CityId city) const;

 private:
  friend class L3Topology;
  const L3Topology* topo_ = nullptr;
  RouterIdx src_ = kNoRouter;
  /// Per router: the edge it was reached by (none for the source).
  std::vector<std::uint32_t> via_;
  /// Per city: the first of its routers to settle, for destination cities.
  std::vector<RouterIdx> goal_;
};

class L3Topology {
 public:
  static L3Topology from_ground_truth(const isp::GroundTruth& truth,
                                      const transport::CityDatabase& cities,
                                      const PeeringParams& params = {});

  const std::vector<Router>& routers() const noexcept { return routers_; }
  const std::vector<L3Edge>& edges() const noexcept { return edges_; }
  const std::vector<std::uint32_t>& edges_at(RouterIdx r) const;

  std::optional<RouterIdx> router_at(isp::IspId isp, transport::CityId city) const;

  /// All routers located in a city (candidate access points).
  const std::vector<RouterIdx>& routers_in(transport::CityId city) const;

  /// Shortest L3 routes from router `src` to the nearest router of each
  /// of `dst_cities` (weight: fiber km + peering penalties), from one
  /// Dijkstra search that stops once every destination city has settled a
  /// router.  Each route is the one a search for its city alone finds.
  L3Routes routes_from(RouterIdx src, std::span<const transport::CityId> dst_cities,
                       const PeeringParams& params = {}) const;

  /// routes_from(src, {dst_city}, params).route(dst_city): the router
  /// sequence, empty if unreachable.
  std::vector<RouterIdx> route(RouterIdx src, transport::CityId dst_city,
                               const PeeringParams& params = {}) const;

 private:
  std::vector<Router> routers_;
  std::vector<L3Edge> edges_;
  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::vector<std::vector<RouterIdx>> by_city_;
  std::unordered_map<std::uint64_t, RouterIdx> by_isp_city_;
  static const std::vector<RouterIdx> kNoRouters;
  static const std::vector<std::uint32_t> kNoEdges;
};

}  // namespace intertubes::traceroute
