// Immutable, versioned bundles of the expensive world artifacts, behind an
// RCU-style atomic pointer swap.
//
// A Snapshot packages everything a query needs — the constructed FiberMap,
// the ISP × conduit RiskMatrix, the L3 topology, the traceroute overlay,
// and the precomputed conduit-sharing tables — as one immutable unit.  The
// SnapshotStore publishes snapshots with a monotonically increasing epoch;
// readers grab the current snapshot with a single lock-free
// std::atomic<std::shared_ptr> load and keep it alive for the duration of
// their query, so a rebuilt world (new seed, strict/lenient reingest, or a
// what-if conduit cut) hot-swaps under live readers with zero locking on
// the read path.  Old snapshots die when their last reader drops them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cascade/cascade.hpp"
#include "core/world_view.hpp"
#include "risk/risk_matrix.hpp"
#include "route/path_engine.hpp"
#include "traceroute/overlay.hpp"

namespace intertubes::serve {

/// Sentinel for SnapshotSoA::node_dense entries of cities that are not a
/// conduit endpoint.
inline constexpr std::uint32_t kNoDenseNode = 0xffffffffu;

/// Struct-of-arrays projections of the derived artifacts, built once at
/// Snapshot::derive() time.  The serve fast path (serve/fastpath.hpp)
/// streams over these flat arrays instead of chasing unordered_map /
/// vector<vector> nodes, which is what makes steady-state queries
/// allocation-free: every per-query structure the old handlers built
/// (dense node maps, component-size hash maps, usage-row scans) is either
/// precomputed here or replaced by an array pass over caller scratch.
struct SnapshotSoA {
  // --- risk rows (Hamming / shared-risk) ------------------------------
  /// Usage bitset, row-major: ISP i uses conduit c  <=>  bit (c % 64) of
  /// usage_bits[i * words_per_isp + c / 64].  Hamming distance between
  /// two ISPs = popcount of the XOR of their rows.
  std::size_t words_per_isp = 0;
  std::vector<std::uint64_t> usage_bits;
  /// Per-ISP shared-risk row indexed by IspId (zeros for ISPs using no
  /// conduits) — O(1) lookup vs scanning RiskMatrix::isp_risk_ranking().
  std::vector<risk::RiskMatrix::IspRisk> risk_by_isp;

  // --- conduit columns (top-k / city-path hops) -----------------------
  /// Every conduit id in most_shared_conduits order (descending tenancy,
  /// ascending id ties): the top-k answer is the first k entries.
  std::vector<core::ConduitId> conduits_by_tenancy;
  std::vector<transport::CityId> conduit_a;    ///< indexed by ConduitId
  std::vector<transport::CityId> conduit_b;
  std::vector<std::uint16_t> conduit_tenants;
  std::vector<std::uint8_t> conduit_validated;
  std::vector<double> conduit_km;

  // --- link → conduit incidence CSR (what-if-cut) ---------------------
  std::vector<std::uint32_t> link_isp;             ///< indexed by link order
  std::vector<std::uint32_t> link_conduit_offsets; ///< size links()+1
  std::vector<core::ConduitId> link_conduits;      ///< CSR payload
  std::size_t num_isps = 0;

  // --- dense node indexing (what-if-cut connectivity) -----------------
  /// Dense index per CityId over the cities that appear as a conduit
  /// endpoint (kNoDenseNode otherwise); replaces the per-query
  /// unordered_map the connectivity scan used to build.
  std::vector<std::uint32_t> node_dense;
  std::size_t num_map_nodes = 0;
  /// Connectivity of the *uncut* conduit graph — the what-if baseline,
  /// identical for every query on this snapshot.
  double connected_fraction_before = 0.0;
  std::size_t components_before = 0;
};

struct SnapshotOptions {
  /// Probes for the traceroute campaign feeding the overlay; 0 skips the
  /// overlay entirely (it is the most expensive derived artifact).
  std::uint64_t overlay_probes = 0;
  /// Human-readable provenance shown in diagnostics ("seed=0x1257",
  /// "what-if cut {3,17}", ...).  build() defaults it from the seed.
  std::string label;
};

class Snapshot {
 public:
  /// Derive every artifact from an already-built world.  The view's owner
  /// handle pins the backing world so what-if variants can share it.  Also
  /// eagerly builds the map's lazy adjacency, making all const queries on
  /// the snapshot safe from any number of threads.  Works for any world
  /// source: the paper Scenario or a worldgen::World.
  static std::shared_ptr<Snapshot> build(core::WorldView world, SnapshotOptions options = {});

  /// Paper-world convenience: build from a Scenario.
  static std::shared_ptr<Snapshot> build(std::shared_ptr<const core::Scenario> scenario,
                                         SnapshotOptions options = {}) {
    return build(core::WorldView::of(std::move(scenario)), std::move(options));
  }

  /// A what-if world: `cuts` (conduit ids of *base's* map, deduplicated;
  /// an out-of-range id throws std::logic_error) severed, by applying one
  /// corridor-cut DeltaBatch through serve::LiveMap.  The surviving
  /// conduits keep their tenancy and validation state; links that
  /// traversed a cut conduit are severed (dropped).  Derived artifacts are
  /// recomputed against the cut map.  The base scenario and L3 topology
  /// are shared; the overlay is dropped (its probe evidence refers to the
  /// uncut world).  The label is base's plus " - cut {ids}".
  static std::shared_ptr<Snapshot> with_conduits_cut(const Snapshot& base,
                                                     std::vector<core::ConduitId> cuts);

  /// A sibling snapshot over a rebuilt FiberMap (the live-delta path:
  /// serve::LiveMap folds a DeltaBatch into a mutated map and derives the
  /// next epoch through here).  The base world and L3 topology are
  /// shared; the overlay is dropped (its probe evidence refers to the
  /// base map).  `links_severed` records base-map links the mutation
  /// dropped.
  static std::shared_ptr<Snapshot> with_map(const Snapshot& base, core::FiberMap map,
                                            std::string label, std::size_t links_severed = 0);

  /// Epoch this snapshot was published at; 0 until SnapshotStore::publish.
  std::uint64_t epoch() const noexcept { return epoch_; }
  const std::string& label() const noexcept { return label_; }

  /// The world this snapshot was derived from.  Note map() below is the
  /// snapshot's own (possibly what-if-cut) copy, not world().map.
  const core::WorldView& world() const noexcept { return world_; }
  const transport::CityDatabase& cities() const noexcept { return *world_.cities; }
  const transport::RightOfWayRegistry& row() const noexcept { return *world_.row; }
  const isp::GroundTruth& truth() const noexcept { return *world_.truth; }
  const core::FiberMap& map() const noexcept { return map_; }
  const risk::RiskMatrix& matrix() const noexcept { return matrix_; }
  const traceroute::L3Topology& l3() const noexcept { return *l3_; }
  /// Null when overlay_probes was 0 or for what-if snapshots.
  const traceroute::OverlayResult* overlay() const noexcept { return overlay_.get(); }

  /// Flat struct-of-arrays projections for the zero-alloc serve fast
  /// path (see serve/fastpath.hpp); derived once per snapshot.
  const SnapshotSoA& soa() const noexcept { return soa_; }

  /// Precomputed conduits_shared_by_at_least (Fig. 6 series), derived
  /// from matrix().  The per-ISP risk rows are soa().risk_by_isp.
  const std::vector<std::size_t>& sharing_table() const noexcept { return sharing_table_; }

  /// Links of the base map severed by the cut (0 for non-what-if
  /// snapshots).
  std::size_t links_severed() const noexcept { return links_severed_; }

  /// The compiled length-weighted conduit graph (conduit id = edge id,
  /// node = city) for city-pair path queries.  Immutable like everything
  /// else here, so any number of request threads may query it.
  const route::PathEngine& path_engine() const noexcept { return *path_engine_; }

  /// Shared handle to the same engine, for consumers (dissect/) that
  /// alias it instead of compiling a duplicate.
  std::shared_ptr<const route::PathEngine> shared_path_engine() const noexcept {
    return path_engine_;
  }

  /// Cross-layer cascade engine over this snapshot's map, aliasing the
  /// snapshot's compiled path engine (the demand substrate and capacities
  /// are precomputed at derive() time, so per-request work is just the
  /// overload rounds).
  const cascade::CascadeEngine& cascade_engine() const noexcept { return *cascade_; }

 private:
  friend class SnapshotStore;
  Snapshot() = default;
  void derive();  ///< compute matrix_ + tables from map_ and warm caches

  std::uint64_t epoch_ = 0;
  std::string label_;
  core::WorldView world_;
  core::FiberMap map_{0};
  risk::RiskMatrix matrix_;
  std::shared_ptr<const traceroute::L3Topology> l3_;
  std::shared_ptr<const traceroute::OverlayResult> overlay_;
  std::vector<std::size_t> sharing_table_;
  SnapshotSoA soa_;
  std::shared_ptr<const route::PathEngine> path_engine_;
  std::shared_ptr<const cascade::CascadeEngine> cascade_;
  std::size_t links_severed_ = 0;
};

/// Publication point: one atomic shared_ptr, so current() is wait-free and
/// publish() is a single pointer swap.  Epochs are assigned at publish
/// time and strictly increase.
class SnapshotStore {
 public:
  /// The snapshot visible to new requests; nullptr before first publish.
  std::shared_ptr<const Snapshot> current() const noexcept {
    return current_.load(std::memory_order_acquire);
  }

  /// Stamp the snapshot with the next epoch and swap it in.  Returns the
  /// assigned epoch.  In-flight readers keep the previous snapshot alive
  /// until they finish.
  std::uint64_t publish(std::shared_ptr<Snapshot> snapshot);

  /// Install an already epoch-stamped snapshot without restamping it —
  /// the replica-distribution path: the sharded front-end stamps each
  /// snapshot exactly once through its primary store, then installs the
  /// same pointer into every shard's store so all shards agree on the
  /// epoch.  Keeps this store's own epoch counter ahead of the installed
  /// epoch, so a later direct publish() here stays strictly monotone.
  void install(std::shared_ptr<const Snapshot> snapshot);

  /// Epoch of the currently published snapshot (0 when empty).
  std::uint64_t epoch() const noexcept {
    const auto snap = current();
    return snap ? snap->epoch() : 0;
  }

 private:
  std::atomic<std::shared_ptr<const Snapshot>> current_;
  std::atomic<std::uint64_t> next_epoch_{1};
};

}  // namespace intertubes::serve
