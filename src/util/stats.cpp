#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace intertubes {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::standard_error() const noexcept {
  if (n_ == 0) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_of_sorted(values, p);
}

double percentile_of_sorted(const std::vector<double>& sorted, double p) {
  IT_CHECK(!sorted.empty());
  IT_CHECK(p >= 0.0 && p <= 100.0);
  if (sorted.size() == 1) return sorted.front();
  const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quartile25(const std::vector<double>& values) { return percentile(values, 25.0); }
double median(const std::vector<double>& values) { return percentile(values, 50.0); }
double quartile75(const std::vector<double>& values) { return percentile(values, 75.0); }

std::vector<CdfPoint> empirical_cdf(std::vector<double> values) {
  std::vector<CdfPoint> out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Emit one point per distinct value, carrying the cumulative fraction.
    if (i + 1 == values.size() || values[i + 1] != values[i]) {
      out.push_back({values[i], static_cast<double>(i + 1) / n});
    }
  }
  return out;
}

double cdf_at(const std::vector<CdfPoint>& cdf, double x) {
  double f = 0.0;
  for (const auto& pt : cdf) {
    if (pt.x <= x) {
      f = pt.f;
    } else {
      break;
    }
  }
  return f;
}

double cdf_quantile(const std::vector<CdfPoint>& cdf, double q) {
  IT_CHECK(!cdf.empty());
  IT_CHECK(q > 0.0 && q <= 1.0);
  for (const auto& pt : cdf) {
    if (pt.f >= q) return pt.x;
  }
  return cdf.back().x;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  IT_CHECK(hi > lo);
  IT_CHECK(bins > 0);
  counts_.assign(bins, 0.0);
}

void Histogram::add(double x) noexcept { add(x, 1.0); }

void Histogram::add(double x, double weight) noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / width));
  if (idx < 0) idx = 0;
  if (idx >= static_cast<std::ptrdiff_t>(counts_.size()))
    idx = static_cast<std::ptrdiff_t>(counts_.size()) - 1;
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t i) const noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i + 1);
}

double Histogram::relative(std::size_t i) const noexcept {
  if (total_ <= 0.0) return 0.0;
  return counts_[i] / total_;
}

LatencyHistogram::LatencyHistogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), log_lo_(std::log(lo)) {
  IT_CHECK(lo > 0.0);
  IT_CHECK(hi > lo);
  IT_CHECK(buckets > 0);
  log_step_ = (std::log(hi) - log_lo_) / static_cast<double>(buckets);
  counts_.assign(buckets, 0);
}

void LatencyHistogram::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  std::ptrdiff_t idx = 0;
  if (x > lo_) {
    idx = static_cast<std::ptrdiff_t>(std::floor((std::log(x) - log_lo_) / log_step_));
    if (idx < 0) idx = 0;
    if (idx >= static_cast<std::ptrdiff_t>(counts_.size()))
      idx = static_cast<std::ptrdiff_t>(counts_.size()) - 1;
  }
  ++counts_[static_cast<std::size_t>(idx)];
}

double LatencyHistogram::bucket_lo(std::size_t i) const noexcept {
  return std::exp(log_lo_ + log_step_ * static_cast<double>(i));
}

double LatencyHistogram::bucket_hi(std::size_t i) const noexcept {
  return std::exp(log_lo_ + log_step_ * static_cast<double>(i + 1));
}

double LatencyHistogram::percentile(double p) const {
  IT_CHECK(p >= 0.0 && p <= 100.0);
  if (count_ == 0) return 0.0;
  // Rank of the target observation, 1-based; the bucket that contains it
  // bounds the estimate, geometric interpolation refines within.
  const double rank = std::max(1.0, (p / 100.0) * static_cast<double>(count_));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) >= rank) {
      const double frac = (rank - before) / static_cast<double>(counts_[i]);
      const double log_est = std::log(bucket_lo(i)) + log_step_ * frac;
      return std::clamp(std::exp(log_est), min_, max_);
    }
  }
  return max_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  IT_CHECK(same_geometry(other));
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

bool LatencyHistogram::same_geometry(const LatencyHistogram& other) const noexcept {
  return lo_ == other.lo_ && hi_ == other.hi_ && counts_.size() == other.counts_.size();
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  IT_CHECK(a.size() == b.size());
  IT_CHECK(a.size() >= 2);
  RunningStats sa;
  RunningStats sb;
  for (double x : a) sa.add(x);
  for (double x : b) sb.add(x);
  double cov = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - sa.mean()) * (b[i] - sb.mean());
  }
  cov /= static_cast<double>(a.size() - 1);
  const double denom = sa.stddev() * sb.stddev();
  if (denom == 0.0) return 0.0;
  return cov / denom;
}

}  // namespace intertubes
