// The long-haul fiber map — the paper's primary artifact.
//
// Terminology follows the paper: a *conduit* is a tube between two
// adjacent cities that houses the fiber of one or more providers; a *link*
// is one provider's long-haul fiber between two of its POPs, realized as a
// sequence of conduits; a *node* is a city touched by the map.  Conduits
// are identified with right-of-way corridors, which is what makes "two
// providers in the same trench" a well-defined geometric statement.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isp/profiles.hpp"
#include "transport/row.hpp"

namespace intertubes::core {

using LinkId = std::uint32_t;
using ConduitId = std::uint32_t;
inline constexpr ConduitId kNoConduit = 0xffffffffu;

/// How a conduit's existence / tenancy entered the map.
enum class Provenance : std::uint8_t {
  GeocodedMap,     ///< step 1: explicit geometry in a published map
  PublicRecords,   ///< step 2/4: inferred or validated from documents
  RowAlignment,    ///< step 3: tentative alignment of a POP-only link
};

struct Conduit {
  ConduitId id = 0;
  transport::CorridorId corridor = transport::kNoCorridor;
  transport::CityId a = transport::kNoCity;
  transport::CityId b = transport::kNoCity;
  double length_km = 0.0;
  std::vector<isp::IspId> tenants;  ///< sorted, unique
  /// True once step 2/4 found document support for this conduit.
  bool validated = false;
  Provenance provenance = Provenance::GeocodedMap;
};

struct Link {
  LinkId id = 0;
  isp::IspId isp = isp::kNoIsp;
  transport::CityId a = transport::kNoCity;
  transport::CityId b = transport::kNoCity;
  std::vector<ConduitId> conduits;  ///< in path order a→b
  double length_km = 0.0;
  bool geocoded = false;  ///< came from a geocoded published map
};

/// Mutable map under construction; immutable once handed to analyses.
class FiberMap {
 public:
  explicit FiberMap(std::size_t num_isps) : num_isps_(num_isps) {}

  std::size_t num_isps() const noexcept { return num_isps_; }

  /// Get or create the conduit for a corridor.
  ConduitId ensure_conduit(const transport::Corridor& corridor, Provenance provenance);

  /// Returns the conduit for a corridor if it exists in the map.
  std::optional<ConduitId> conduit_for_corridor(transport::CorridorId corridor) const;

  /// Add a tenant (idempotent).
  void add_tenant(ConduitId conduit, isp::IspId isp);
  void mark_validated(ConduitId conduit);

  /// Record a link; returns its id.
  LinkId add_link(isp::IspId isp, transport::CityId a, transport::CityId b,
                  const std::vector<ConduitId>& conduits, bool geocoded);

  /// Re-route an existing link over a new conduit sequence (step-4
  /// corrections).  Tenancy on the new conduits is added; tenancy on the
  /// old ones is deliberately retained (the evidence of presence stands).
  void replace_link_conduits(LinkId id, const std::vector<ConduitId>& conduits);

  const std::vector<Conduit>& conduits() const noexcept { return conduits_; }
  const std::vector<Link>& links() const noexcept { return links_; }
  const Conduit& conduit(ConduitId id) const;
  const Link& link(LinkId id) const;

  /// Conduits incident to a city (for graph traversals).
  ///
  /// NOT safe for concurrent first use: the adjacency is built lazily on
  /// the first call (and invalidated by ensure_conduit).  Call
  /// prepare_for_concurrent_reads() once after construction to make all
  /// subsequent const queries safe from many threads (the serve/ read
  /// path relies on this).
  const std::vector<ConduitId>& conduits_at(transport::CityId c) const;

  /// Eagerly build the lazy adjacency so later const queries perform no
  /// writes.  Must be called before the map is shared across threads;
  /// mutating the map afterwards (ensure_conduit) requires another call.
  void prepare_for_concurrent_reads() const;

  /// Cities that appear as a conduit endpoint.
  std::vector<transport::CityId> nodes() const;

  /// Each conduit's endpoints as indexes into nodes(), indexed by
  /// ConduitId: the dense edge list the connectivity kernel unites.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> conduit_node_indexes() const;

  /// Link ids of one ISP.
  std::vector<LinkId> links_of(isp::IspId isp) const;

  /// Distinct cities appearing as endpoints of one ISP's links.
  std::vector<transport::CityId> nodes_of(isp::IspId isp) const;

  /// Conduit ids with >= 1 tenant equal to `isp`.
  std::vector<ConduitId> conduits_of(isp::IspId isp) const;

 private:
  std::size_t num_isps_;
  std::vector<Conduit> conduits_;
  std::vector<Link> links_;
  std::unordered_map<transport::CorridorId, ConduitId> by_corridor_;
  mutable std::vector<std::vector<ConduitId>> adjacency_;  // grown lazily
  static const std::vector<ConduitId> kEmpty;
};

/// Headline statistics (the numbers quoted in §2.5: nodes, links,
/// conduits; per-ISP figures for Table 1).
struct MapStats {
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::size_t conduits = 0;
  std::size_t validated_conduits = 0;
  double total_conduit_km = 0.0;
  std::vector<std::size_t> nodes_per_isp;
  std::vector<std::size_t> links_per_isp;
};

MapStats compute_stats(const FiberMap& map);

}  // namespace intertubes::core

// Forward declaration to avoid a core ↔ isp include cycle in this header.
namespace intertubes::isp {
class GroundTruth;
}

namespace intertubes::core {

/// Build a FiberMap directly from ground truth (a "perfect oracle" map).
/// Used by ablations and as the fidelity upper bound — the real pipeline
/// must approach this from published artifacts alone.
FiberMap map_from_ground_truth(const isp::GroundTruth& truth,
                               const transport::RightOfWayRegistry& row);

}  // namespace intertubes::core
