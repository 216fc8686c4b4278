#include "util/rng.hpp"

#include <cmath>

namespace intertubes {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() noexcept {
  // 53 top bits → [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method.
  if (bound == 0) return 0;
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) noexcept {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) noexcept {
  double u = 0.0;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::pareto(double shape, double scale) noexcept {
  double u = 0.0;
  do {
    u = next_double();
  } while (u <= 0.0);
  return scale / std::pow(u, 1.0 / shape);
}

std::size_t Rng::zipf(std::size_t n, double s) noexcept {
  if (n <= 1) return 0;
  // Rejection sampling against the continuous envelope 1/x^s.
  const double nd = static_cast<double>(n);
  for (;;) {
    double u = 0.0;
    do {
      u = next_double();
    } while (u <= 0.0);
    double x = 0.0;
    if (s == 1.0) {
      x = std::exp(u * std::log(nd + 1.0));
    } else {
      const double t = std::pow(nd + 1.0, 1.0 - s);
      x = std::pow(u * (t - 1.0) + 1.0, 1.0 / (1.0 - s));
    }
    const auto k = static_cast<std::size_t>(x);
    if (k >= 1 && k <= n) {
      const double ratio = std::pow(static_cast<double>(k) / x, s);
      if (next_double() < ratio) return k - 1;
    }
  }
}

std::size_t Rng::weighted_pick(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  return weighted_pick(weights, total);
}

std::size_t Rng::weighted_pick(const std::vector<double>& weights, double total) noexcept {
  if (total <= 0.0) return 0;
  double target = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  IT_CHECK(k <= n);
  // Partial Fisher–Yates over an index vector.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(next_below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

Rng Rng::fork() noexcept {
  return Rng(next_u64() ^ 0xa5a5a5a55a5a5a5aULL);
}

Rng substream_rng(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Two mixing rounds decorrelate nearby (seed, stream) pairs before the
  // xoshiro seeding expands the state.
  return Rng(mix64(mix64(seed) + 0x9e3779b97f4a7c15ULL * (stream + 1)));
}

}  // namespace intertubes
