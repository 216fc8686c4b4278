#include "serve/fastpath.hpp"

#include <algorithm>
#include <bit>

namespace intertubes::serve::fastpath {

void RequestScratch::warm(const Snapshot& snap) {
  const SnapshotSoA& soa = snap.soa();
  const std::size_t num_conduits = soa.conduit_a.size();
  cut_ids.reserve(num_conduits);
  conduit_cut.assign(num_conduits, 0);
  isp_hit.assign(soa.num_isps, 0);
  connectivity.reset(soa.num_map_nodes);
  hamming.reserve(soa.num_isps);
  snap.path_engine().warm_workspace(route_ws);
  path.edges.reserve(soa.num_map_nodes + 1);
  path.nodes.reserve(soa.num_map_nodes + 1);
}

bool fast_what_if_cut(const SnapshotSoA& soa, const std::vector<core::ConduitId>& cuts,
                      RequestScratch& scratch, CutImpact& out) {
  const std::size_t num_conduits = soa.conduit_a.size();
  scratch.cut_ids.assign(cuts.begin(), cuts.end());
  std::sort(scratch.cut_ids.begin(), scratch.cut_ids.end());
  scratch.cut_ids.erase(std::unique(scratch.cut_ids.begin(), scratch.cut_ids.end()),
                        scratch.cut_ids.end());
  if (!scratch.cut_ids.empty() && scratch.cut_ids.back() >= num_conduits) return false;

  out = CutImpact{};
  out.conduits_cut = scratch.cut_ids.size();
  out.connected_fraction_before = soa.connected_fraction_before;

  scratch.conduit_cut.assign(num_conduits, 0);
  for (const core::ConduitId c : scratch.cut_ids) scratch.conduit_cut[c] = 1;

  // Severed links + distinct ISPs hit, one CSR pass.
  scratch.isp_hit.assign(soa.num_isps, 0);
  const std::size_t num_links = soa.link_isp.size();
  for (std::size_t i = 0; i < num_links; ++i) {
    const std::uint32_t begin = soa.link_conduit_offsets[i];
    const std::uint32_t end = soa.link_conduit_offsets[i + 1];
    bool severed = false;
    for (std::uint32_t j = begin; j < end && !severed; ++j) {
      severed = scratch.conduit_cut[soa.link_conduits[j]] != 0;
    }
    if (!severed) continue;
    ++out.links_severed;
    scratch.isp_hit[soa.link_isp[i]] = 1;
  }
  for (const std::uint8_t hit : scratch.isp_hit) out.isps_hit += hit;

  // Post-cut connectivity over the uncut node set (severed nodes stay as
  // singleton components).
  Connectivity& sets = scratch.connectivity;
  sets.reset(soa.num_map_nodes);
  for (std::size_t c = 0; c < num_conduits; ++c) {
    if (scratch.conduit_cut[c]) continue;
    sets.unite(soa.node_dense[soa.conduit_a[c]], soa.node_dense[soa.conduit_b[c]]);
  }
  out.connected_fraction_after = sets.pair_fraction();
  out.components_after = sets.components();
  return true;
}

std::size_t fast_hamming_neighbors(const SnapshotSoA& soa, std::uint32_t isp, std::size_t k,
                                   RequestScratch& scratch) {
  scratch.hamming.clear();
  const std::uint64_t* self = soa.usage_bits.data() + isp * soa.words_per_isp;
  for (std::uint32_t other = 0; other < soa.num_isps; ++other) {
    if (other == isp) continue;
    const std::uint64_t* row = soa.usage_bits.data() + other * soa.words_per_isp;
    std::uint64_t distance = 0;
    for (std::size_t w = 0; w < soa.words_per_isp; ++w) {
      distance += static_cast<std::uint64_t>(std::popcount(self[w] ^ row[w]));
    }
    scratch.hamming.emplace_back(distance, other);
  }
  const std::size_t count = k < scratch.hamming.size() ? k : scratch.hamming.size();
  std::partial_sort(scratch.hamming.begin(),
                    scratch.hamming.begin() + static_cast<std::ptrdiff_t>(count),
                    scratch.hamming.end());
  return count;
}

void fast_city_path(const Snapshot& snap, route::NodeId from, route::NodeId to,
                    RequestScratch& scratch) {
  snap.path_engine().shortest_path(from, to, {}, scratch.route_ws, scratch.path);
}

}  // namespace intertubes::serve::fastpath
