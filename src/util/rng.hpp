// Deterministic random number generation.
//
// All stochastic components of the library draw from an explicitly seeded
// Rng so that every experiment is exactly reproducible.  The generator is
// xoshiro256** seeded via SplitMix64; both are tiny, fast, and have
// well-studied statistical quality.  We deliberately do not use
// std::mt19937 / std::uniform_int_distribution because their output is not
// guaranteed to be identical across standard-library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace intertubes {

/// SplitMix64 step — used for seeding and for cheap hash mixing.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless mix of a 64-bit value (one SplitMix64 round).
std::uint64_t mix64(std::uint64_t x) noexcept;

class Rng;

/// Independent substream `stream` of a seeded family: the generator for
/// (seed, stream) depends on nothing else, so Monte-Carlo trial i can be
/// computed by any thread in any order and still draw the same values.
Rng substream_rng(std::uint64_t seed, std::uint64_t stream) noexcept;

/// xoshiro256** PRNG with explicit seeding and value semantics.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, 1).
  double next_double() noexcept;

  /// Uniform integer in [0, bound). bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Standard normal via Box–Muller (cached second value).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept;

  /// Exponential with given rate (> 0).
  double exponential(double rate) noexcept;

  /// Bernoulli trial.
  bool chance(double p) noexcept;

  /// Pareto(shape, scale) — heavy-tailed draws for traffic/population models.
  double pareto(double shape, double scale) noexcept;

  /// Zipf-like rank draw in [0, n): P(k) ∝ 1/(k+1)^s, via inverse-CDF on a
  /// precomputed table is avoided; uses rejection sampling good for n ≤ 1e6.
  std::size_t zipf(std::size_t n, double s) noexcept;

  /// Index drawn proportional to non-negative weights (at least one > 0).
  std::size_t weighted_pick(const std::vector<double>& weights) noexcept;

  /// The same draw, given the total the one-argument form sums: the
  /// positive weights, in index order.  Callers that draw many times from
  /// fixed weights compute it once.
  std::size_t weighted_pick(const std::vector<double>& weights, double total) noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k ≤ n), order unspecified
  /// but deterministic.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Derive an independent child generator (for decoupling subsystems).
  Rng fork() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace intertubes
