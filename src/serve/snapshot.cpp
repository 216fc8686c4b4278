#include "serve/snapshot.hpp"

#include <algorithm>
#include <sstream>

#include "serve/delta.hpp"
#include "traceroute/campaign.hpp"
#include "util/check.hpp"
#include "util/connectivity.hpp"

namespace intertubes::serve {

namespace {

/// The uncut-map connectivity baseline, precomputed once per snapshot so
/// what-if-cut queries only ever pay for the *after* side.
void derive_base_connectivity(const core::FiberMap& map, SnapshotSoA& soa) {
  Connectivity sets(soa.num_map_nodes);
  for (const auto& conduit : map.conduits()) {
    sets.unite(soa.node_dense[conduit.a], soa.node_dense[conduit.b]);
  }
  soa.connected_fraction_before = sets.pair_fraction();
  soa.components_before = sets.components();
}

/// Build every flat projection the fast path streams over.
SnapshotSoA derive_soa(const core::FiberMap& map, const risk::RiskMatrix& matrix,
                       std::size_t num_cities) {
  SnapshotSoA soa;
  const std::size_t num_conduits = map.conduits().size();
  soa.num_isps = map.num_isps();

  // Usage bitset rows (Hamming = XOR + popcount over these words).
  soa.words_per_isp = (num_conduits + 63) / 64;
  soa.usage_bits.assign(soa.num_isps * soa.words_per_isp, 0);
  for (const auto& conduit : map.conduits()) {
    const std::size_t word = conduit.id / 64;
    const std::uint64_t bit = std::uint64_t{1} << (conduit.id % 64);
    for (const isp::IspId tenant : conduit.tenants) {
      soa.usage_bits[tenant * soa.words_per_isp + word] |= bit;
    }
  }

  // O(1) shared-risk rows (the ranking covers every IspId exactly once).
  soa.risk_by_isp.assign(soa.num_isps, {});
  for (const auto& row : matrix.isp_risk_ranking()) soa.risk_by_isp[row.isp] = row;

  // The full most-shared ordering; any top-k is a prefix copy.
  soa.conduits_by_tenancy = matrix.most_shared_conduits(num_conduits);

  // Conduit columns.
  soa.conduit_a.resize(num_conduits);
  soa.conduit_b.resize(num_conduits);
  soa.conduit_tenants.resize(num_conduits);
  soa.conduit_validated.resize(num_conduits);
  soa.conduit_km.resize(num_conduits);
  for (const auto& conduit : map.conduits()) {
    soa.conduit_a[conduit.id] = conduit.a;
    soa.conduit_b[conduit.id] = conduit.b;
    soa.conduit_tenants[conduit.id] = static_cast<std::uint16_t>(conduit.tenants.size());
    soa.conduit_validated[conduit.id] = conduit.validated ? 1 : 0;
    soa.conduit_km[conduit.id] = conduit.length_km;
  }

  // Link → conduit incidence CSR.
  const auto& links = map.links();
  soa.link_isp.resize(links.size());
  soa.link_conduit_offsets.assign(links.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < links.size(); ++i) {
    soa.link_isp[i] = links[i].isp;
    soa.link_conduit_offsets[i] = static_cast<std::uint32_t>(total);
    total += links[i].conduits.size();
  }
  soa.link_conduit_offsets[links.size()] = static_cast<std::uint32_t>(total);
  soa.link_conduits.reserve(total);
  for (const auto& link : links) {
    soa.link_conduits.insert(soa.link_conduits.end(), link.conduits.begin(),
                             link.conduits.end());
  }

  // Dense node index over the conduit-endpoint cities.
  soa.node_dense.assign(num_cities, kNoDenseNode);
  const auto nodes = map.nodes();
  soa.num_map_nodes = nodes.size();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    soa.node_dense[nodes[i]] = static_cast<std::uint32_t>(i);
  }

  derive_base_connectivity(map, soa);
  return soa;
}

}  // namespace

void Snapshot::derive() {
  matrix_ = risk::RiskMatrix::from_map(map_);
  sharing_table_ = matrix_.conduits_shared_by_at_least();
  soa_ = derive_soa(map_, matrix_, world_.cities->size());
  // Compile the conduit graph for city-pair path queries.
  std::vector<route::EdgeSpec> edges;
  edges.reserve(map_.conduits().size());
  for (const auto& conduit : map_.conduits()) {
    edges.push_back({conduit.a, conduit.b, conduit.length_km});
  }
  path_engine_ = std::make_shared<const route::PathEngine>(
      static_cast<route::NodeId>(world_.cities->size()), std::move(edges));
  // After this, every const query on the map is write-free and may run
  // from any number of threads concurrently.
  map_.prepare_for_concurrent_reads();
  // The cascade engine aliases path_engine_ (edge id == conduit id holds
  // by construction above) and snapshots the demand substrate once here,
  // so what-if-cascade requests pay only the overload rounds.
  cascade_ = std::make_shared<const cascade::CascadeEngine>(map_, l3_.get(), world_.cities,
                                                           world_.row, path_engine_);
}

std::shared_ptr<Snapshot> Snapshot::build(core::WorldView world, SnapshotOptions options) {
  IT_CHECK(world.valid());
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->world_ = std::move(world);
  snap->map_ = *snap->world_.map;
  snap->l3_ = std::make_shared<traceroute::L3Topology>(
      traceroute::L3Topology::from_ground_truth(*snap->world_.truth, *snap->world_.cities));
  if (options.overlay_probes > 0) {
    traceroute::CampaignParams params;
    params.num_probes = options.overlay_probes;
    const auto campaign = traceroute::run_campaign(*snap->l3_, *snap->world_.cities,
                                                   snap->world_.truth->profiles(), params);
    snap->overlay_ = std::make_shared<traceroute::OverlayResult>(
        traceroute::overlay_campaign(snap->map_, *snap->world_.cities, campaign));
  }
  snap->label_ = options.label.empty() ? "base world" : options.label;
  snap->derive();
  return snap;
}

std::shared_ptr<Snapshot> Snapshot::with_conduits_cut(const Snapshot& base,
                                                      std::vector<core::ConduitId> cuts) {
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  // Corridor identity is what a conduit id names across map rebuilds, so
  // the cut is one corridor-cut batch on the live-delta path
  // (FiberMap::conduit rejects an out-of-range id).
  DeltaBatch batch;
  std::ostringstream label;
  label << base.label_ << " - cut {";
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    batch.cut.push_back(base.map_.conduit(cuts[i]).corridor);
    label << (i ? "," : "") << cuts[i];
  }
  label << "}";
  // LiveMap keeps nothing of its base past apply() (with_map copies the
  // world view and L3 handle), so a non-owning handle to `base` will do.
  const std::shared_ptr<const Snapshot> borrowed(std::shared_ptr<const Snapshot>{}, &base);
  auto snap = LiveMap(borrowed).apply(batch);
  snap->label_ = label.str();
  return snap;
}

std::shared_ptr<Snapshot> Snapshot::with_map(const Snapshot& base, core::FiberMap map,
                                             std::string label, std::size_t links_severed) {
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->world_ = base.world_;
  snap->l3_ = base.l3_;  // ground-truth topology is unaffected by map mutations
  snap->map_ = std::move(map);
  snap->label_ = std::move(label);
  snap->links_severed_ = links_severed;
  snap->derive();
  return snap;
}

std::uint64_t SnapshotStore::publish(std::shared_ptr<Snapshot> snapshot) {
  IT_CHECK(snapshot != nullptr);
  const std::uint64_t epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed);
  snapshot->epoch_ = epoch;
  current_.store(std::move(snapshot), std::memory_order_release);
  return epoch;
}

void SnapshotStore::install(std::shared_ptr<const Snapshot> snapshot) {
  IT_CHECK(snapshot != nullptr);
  // Keep next_epoch_ strictly above the installed epoch (CAS max, so
  // concurrent installs of out-of-order replicas cannot wind it back).
  std::uint64_t next = next_epoch_.load(std::memory_order_relaxed);
  while (next <= snapshot->epoch() &&
         !next_epoch_.compare_exchange_weak(next, snapshot->epoch() + 1,
                                            std::memory_order_relaxed)) {
  }
  current_.store(std::move(snapshot), std::memory_order_release);
}

}  // namespace intertubes::serve
