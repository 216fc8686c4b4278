// The zero-allocation serve kernels (DESIGN.md §14).
//
// Each fast_* function here is the computational core of one Engine
// request handler, restated as a pure pass over the Snapshot's flat SoA
// projections (serve/snapshot.hpp) plus caller-owned RequestScratch.  The
// kernels traffic exclusively in ids and PODs — no strings, no Response
// structs — and at steady state (a warmed scratch whose buffers have seen
// this snapshot's dimensions once) they perform **zero heap allocations**
// per query.  That claim is machine-checked: tests/serve/zero_alloc_test.cpp
// wraps every kernel in a util::ZeroAllocGuard, and bench_serve_engine
// reports allocs_per_query as a tracked regression metric.
//
// The Engine's presentation layer (resolving display names, building the
// Response variant, the memoization cache) sits *outside* the guarantee by
// design — it materializes user-facing strings and cached shared_ptrs.
// The contract is: everything algorithmic is allocation-free; only the
// final string materialization allocates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "route/path_engine.hpp"
#include "serve/snapshot.hpp"
#include "util/connectivity.hpp"

namespace intertubes::serve::fastpath {

/// Reusable per-request scratch, leased from the Engine's capped
/// util::LeasePool.  All buffers grow to the snapshot's dimensions on
/// first use and keep their capacity across leases, so every later query
/// against a same-or-smaller snapshot is allocation-free.  warm() sizes
/// everything up front for tests/benches that assert on the *first*
/// measured query.
struct RequestScratch {
  // what-if-cut
  std::vector<core::ConduitId> cut_ids;     ///< sorted, deduplicated cut set
  std::vector<std::uint8_t> conduit_cut;    ///< bitmap indexed by ConduitId
  std::vector<std::uint8_t> isp_hit;        ///< bitmap indexed by IspId
  Connectivity connectivity;                ///< over the dense node index

  // hamming-neighbors: (distance, other-isp), sorted ascending
  std::vector<std::pair<std::uint64_t, std::uint32_t>> hamming;

  // city-path
  route::PathEngine::Workspace route_ws;
  route::Path path;

  /// Size every buffer (including the Dijkstra workspace) to `snap`'s
  /// dimensions so the next query on this scratch allocates nothing.
  void warm(const Snapshot& snap);
};

/// What-if-cut blast radius, POD form of serve::WhatIfCutResult.
struct CutImpact {
  std::size_t conduits_cut = 0;
  std::size_t links_severed = 0;
  std::size_t isps_hit = 0;
  double connected_fraction_before = 0.0;
  double connected_fraction_after = 0.0;
  std::size_t components_after = 0;
};

/// O(1) shared-risk row for one ISP (a reference into the snapshot).
inline const risk::RiskMatrix::IspRisk& fast_shared_risk(const SnapshotSoA& soa,
                                                         std::uint32_t isp) noexcept {
  return soa.risk_by_isp[isp];
}

/// Number of rows a top-k query answers: min(k, conduits).  The rows
/// themselves are soa.conduits_by_tenancy[0 .. count) — the precomputed
/// full ordering makes any k a prefix read.  k == 0 is a valid empty
/// query, k > conduits returns the whole list.
inline std::size_t fast_top_conduits(const SnapshotSoA& soa, std::size_t k) noexcept {
  return k < soa.conduits_by_tenancy.size() ? k : soa.conduits_by_tenancy.size();
}

/// Sever `cuts` (unsorted, possibly duplicated) and measure the blast
/// radius.  Returns false when a cut id is out of range (scratch.cut_ids
/// holds the sorted set, so .back() is the offender); true on success
/// with `out` filled.  The connected-pair count is an exact integer, so
/// the fraction is bit-identical to a per-component sum in double.
bool fast_what_if_cut(const SnapshotSoA& soa, const std::vector<core::ConduitId>& cuts,
                      RequestScratch& scratch, CutImpact& out);

/// The k nearest ISPs to `isp` by usage-row Hamming distance (popcount of
/// XOR over the packed bitset rows).  Fills scratch.hamming with the
/// result, sorted by (distance, isp id) ascending; returns the count
/// (min(k, num_isps - 1); k == 0 is a valid empty query).
std::size_t fast_hamming_neighbors(const SnapshotSoA& soa, std::uint32_t isp, std::size_t k,
                                   RequestScratch& scratch);

/// Shortest conduit path between two cities into scratch.path (reachable
/// = false is the answer for disconnected pairs).  Pure delegation to the
/// PathEngine's into-caller-buffer overload with scratch-owned workspace.
void fast_city_path(const Snapshot& snap, route::NodeId from, route::NodeId to,
                    RequestScratch& scratch);

}  // namespace intertubes::serve::fastpath
