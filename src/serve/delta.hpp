// Live-map ingest deltas: incremental mutations, keyed by corridor
// identity, that build the next-epoch Snapshot off the serve hot path.
//
// Conduit ids are reassigned on every map rebuild, so a delta cannot name
// a conduit by id across epochs; transport::CorridorId is the stable
// cross-epoch key (Snapshot::with_conduits_cut translates its conduit ids
// into a corridor-cut batch applied here).  A LiveMap holds the pristine base snapshot plus the
// *cumulative* mutation state (cut corridors, added conduits, extra
// tenants) and rebuilds the mutated map from that state on every apply —
// one deterministic code path, so applying batches one at a time or all
// merged into one yields byte-identical snapshots (the delta-equivalence
// test pins this against a from-scratch rebuild of the mutated world).
//
// apply() is not itself thread-safe: the sharded front-end serializes it
// under its publish lock, and the build runs in the churn thread — never
// on a query worker — before the RCU swap makes it visible.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "serve/snapshot.hpp"

namespace intertubes::serve {

/// Introduce a conduit on a corridor that holds none (a newly trenched or
/// newly discovered route).  Tenants are deduplicated; validated marks
/// document support.
struct NewConduitDelta {
  transport::CorridorId corridor = transport::kNoCorridor;
  std::vector<isp::IspId> tenants;
  bool validated = false;
};

/// Add one tenant to the live conduit on a corridor (a lease observed in
/// new records).
struct TenantDelta {
  transport::CorridorId corridor = transport::kNoCorridor;
  isp::IspId tenant = isp::kNoIsp;
};

/// One ingest batch.  Lists apply in field order — cuts, then repairs,
/// then new conduits, then tenant changes — each against the state the
/// previous list left, so a merged batch equals the same deltas applied
/// one at a time.
struct DeltaBatch {
  /// Sever the live conduit on each corridor (links riding it drop).
  std::vector<transport::CorridorId> cut;
  /// Restore a previously cut corridor: its conduit, tenancy, and every
  /// base-map link that rode it come back.
  std::vector<transport::CorridorId> repair;
  std::vector<NewConduitDelta> add;
  std::vector<TenantDelta> tenant_adds;
  /// Provenance note for the snapshot label ("repair I-90 cut", ...).
  std::string label;

  bool empty() const noexcept {
    return cut.empty() && repair.empty() && add.empty() && tenant_adds.empty();
  }
};

/// The delta applier: pristine base snapshot + cumulative mutation state.
/// Validation is strict — unknown corridors, double cuts, repairs of
/// uncut corridors, adds onto occupied corridors, and out-of-range
/// tenants all throw std::invalid_argument *before* any state changes,
/// so a rejected batch is a no-op.
class LiveMap {
 public:
  explicit LiveMap(std::shared_ptr<const Snapshot> base);

  /// Fold `batch` into the cumulative state and derive the next
  /// snapshot (unstamped — the caller publishes it).  An empty batch is
  /// legal and rebuilds the current state.
  std::shared_ptr<Snapshot> apply(const DeltaBatch& batch);

  const Snapshot& base() const noexcept { return *base_; }
  std::size_t batches_applied() const noexcept { return batches_; }
  std::size_t cut_corridors() const noexcept { return cut_.size(); }
  std::size_t added_conduits() const noexcept { return added_.size(); }

 private:
  bool in_base(transport::CorridorId corridor) const;
  std::shared_ptr<Snapshot> rebuild(const std::string& note) const;

  std::shared_ptr<const Snapshot> base_;
  std::set<transport::CorridorId> cut_;
  std::vector<NewConduitDelta> added_;  ///< insertion order; unique corridors
  std::map<transport::CorridorId, std::set<isp::IspId>> extra_tenants_;
  std::size_t batches_ = 0;
};

}  // namespace intertubes::serve
