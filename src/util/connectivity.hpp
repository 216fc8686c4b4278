// The connectivity kernel every failure analysis shares.
//
// A union-find over dense node ids 0..n-1 (union by size, path halving)
// that keeps three counts current as edges are united: the number of
// components, the number of connected node pairs and the size of the
// largest component.  The counts are integers, so a connected-pair
// fraction read from them is exact.
//
// Failure analyses read a monotone failure sequence with it in reverse
// (read_steps_in_reverse): within one sequence the dead set only grows,
// so step s's graph is the final graph plus the edges first killed after
// step s.  One pass that unites the surviving edges once and then the
// edges of each step back in, last step first, reads every step for the
// price of one union-find over the graph.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace intertubes {

/// First-death step of an edge that never dies.
inline constexpr std::uint32_t kNeverDies = std::numeric_limits<std::uint32_t>::max();

class Connectivity {
 public:
  Connectivity() = default;
  explicit Connectivity(std::size_t num_nodes) { reset(num_nodes); }

  /// `num_nodes` singletons.  Allocates only when num_nodes exceeds every
  /// size this object held before.
  void reset(std::size_t num_nodes);

  std::uint32_t find(std::uint32_t x) noexcept {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Join the components of `a` and `b`; false when they already were one.
  bool unite(std::uint32_t a, std::uint32_t b) noexcept {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    connected_pairs_ += std::uint64_t{size_[a]} * size_[b];
    parent_[b] = a;
    size_[a] += size_[b];
    if (size_[a] > largest_) largest_ = size_[a];
    --components_;
    return true;
  }

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  std::size_t components() const noexcept { return components_; }
  /// Unordered node pairs joined by a path.
  std::uint64_t connected_pairs() const noexcept { return connected_pairs_; }
  /// Nodes in the largest component (0 for the empty graph).
  std::size_t largest() const noexcept { return largest_; }

  /// connected_pairs() over all n(n-1)/2 node pairs; 1.0 below two nodes.
  /// Both counts are exact in double below 2^53, so this equals a sum of
  /// per-component size(size-1)/2 terms in double, bit for bit.
  double pair_fraction() const noexcept;

  /// Read every step 0..last_step of a monotone failure sequence from one
  /// pass.  Edge e, with endpoints ends(e), is dead at step s iff
  /// first_death[e] <= s (kNeverDies: never).  Resets to `num_nodes`,
  /// unites the edges that never die, then calls read(s, *this) for
  /// s = last_step down to 0, uniting the edges that first died at step s
  /// back in after reading it.
  template <typename Ends, typename Read>
  void read_steps_in_reverse(std::size_t num_nodes, std::span<const std::uint32_t> first_death,
                             std::size_t last_step, const Ends& ends, const Read& read);

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t num_nodes_ = 0;
  std::size_t components_ = 0;
  std::uint64_t connected_pairs_ = 0;
  std::size_t largest_ = 0;
  // read_steps_in_reverse's per-step buckets: the edges that first die at
  // step s are bucket_edges_[bucket_start_[s], bucket_start_[s + 1]).
  std::vector<std::uint32_t> bucket_start_;
  std::vector<std::uint32_t> bucket_edges_;
};

template <typename Ends, typename Read>
void Connectivity::read_steps_in_reverse(std::size_t num_nodes,
                                         std::span<const std::uint32_t> first_death,
                                         std::size_t last_step, const Ends& ends,
                                         const Read& read) {
  IT_CHECK(last_step < kNeverDies);
  reset(num_nodes);
  // Counting sort of the dying edges by step; the survivors join at once.
  bucket_start_.assign(last_step + 2, 0);
  for (std::uint32_t e = 0; e < first_death.size(); ++e) {
    const std::uint32_t step = first_death[e];
    if (step == kNeverDies) {
      const auto [u, v] = ends(e);
      unite(u, v);
    } else {
      IT_CHECK(step <= last_step);
      ++bucket_start_[step + 1];
    }
  }
  for (std::size_t s = 1; s < bucket_start_.size(); ++s) bucket_start_[s] += bucket_start_[s - 1];
  bucket_edges_.resize(bucket_start_.back());
  for (std::uint32_t e = 0; e < first_death.size(); ++e) {
    if (first_death[e] != kNeverDies) bucket_edges_[bucket_start_[first_death[e]]++] = e;
  }
  // Each bucket start has moved to the next bucket's start: step s's
  // edges now sit in [bucket_start_[s - 1], bucket_start_[s]).
  for (std::size_t s = last_step;; --s) {
    read(s, static_cast<const Connectivity&>(*this));
    if (s == 0) break;
    for (std::uint32_t k = bucket_start_[s - 1]; k < bucket_start_[s]; ++k) {
      const auto [u, v] = ends(bucket_edges_[k]);
      unite(u, v);
    }
  }
}

}  // namespace intertubes
