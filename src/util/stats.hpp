// Small statistics toolkit used throughout the experiment harnesses:
// summary statistics, percentiles, histograms, and empirical CDFs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace intertubes {

/// Streaming summary statistics (Welford's online algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  ///< Sample variance (n-1 denominator).
  double stddev() const noexcept;
  double standard_error() const noexcept;  ///< stddev / sqrt(n)
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample, p in [0, 100], linear interpolation between
/// order statistics (the common "type 7" definition).  Sorts a copy.
double percentile(std::vector<double> values, double p);

/// The same percentile of a sample already sorted ascending, so several
/// percentiles of one sample share one sort.
double percentile_of_sorted(const std::vector<double>& sorted, double p);

/// Quartile convenience wrappers.
double quartile25(const std::vector<double>& values);
double median(const std::vector<double>& values);
double quartile75(const std::vector<double>& values);

/// An empirical CDF over a sample: pairs (x, F(x)) at each distinct value.
struct CdfPoint {
  double x;
  double f;  ///< P(X <= x)
};

std::vector<CdfPoint> empirical_cdf(std::vector<double> values);

/// Evaluate an empirical CDF at a point (step-function semantics).
double cdf_at(const std::vector<CdfPoint>& cdf, double x);

/// Inverse of an empirical CDF: smallest x with F(x) >= q, q in (0, 1].
double cdf_quantile(const std::vector<CdfPoint>& cdf, double q);

/// Fixed-bin histogram over [lo, hi); values outside are clamped into the
/// first/last bin so mass is never silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  void add(double x, double weight) noexcept;

  std::size_t bins() const noexcept { return counts_.size(); }
  double bin_lo(std::size_t i) const noexcept;
  double bin_hi(std::size_t i) const noexcept;
  double count(std::size_t i) const noexcept { return counts_[i]; }
  double total() const noexcept { return total_; }
  /// Fraction of total mass in bin i (0 if empty histogram).
  double relative(std::size_t i) const noexcept;

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

/// Pearson correlation of two equal-length samples.
double pearson(const std::vector<double>& a, const std::vector<double>& b);

/// Fixed-bucket streaming histogram with log-spaced buckets, built for
/// latency distributions: O(1) add, O(buckets) percentile estimate, exact
/// min/max/sum/count on the side, and merge of identically configured
/// instances (so per-thread histograms can be combined).  Values below
/// `lo` land in the first bucket and values at or above `hi` in the last,
/// so mass is never silently dropped (same policy as Histogram).
class LatencyHistogram {
 public:
  /// Bucket i covers [lo * g^i, lo * g^(i+1)) with g chosen so `buckets`
  /// spans [lo, hi).  Requires 0 < lo < hi and buckets > 0.
  LatencyHistogram(double lo, double hi, std::size_t buckets);

  /// Default geometry for microsecond-scale latencies: 1 µs .. 10 s at
  /// 12 buckets per decade.
  LatencyHistogram() : LatencyHistogram(1.0, 1e7, 84) {}

  void add(double x) noexcept;

  std::size_t buckets() const noexcept { return counts_.size(); }
  double bucket_lo(std::size_t i) const noexcept;
  double bucket_hi(std::size_t i) const noexcept;
  std::uint64_t bucket_count(std::size_t i) const noexcept { return counts_[i]; }

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

  /// Percentile estimate, p in [0, 100]: locate the bucket holding the
  /// target rank and interpolate geometrically within it, clamped to the
  /// exact observed [min, max].  Returns 0 on an empty histogram.
  double percentile(double p) const;

  /// Accumulate another histogram with identical (lo, hi, buckets).
  void merge(const LatencyHistogram& other);

  /// True when (lo, hi, buckets) match, i.e. merge is legal.
  bool same_geometry(const LatencyHistogram& other) const noexcept;

 private:
  double lo_;
  double hi_;
  double log_lo_;
  double log_step_;  ///< log-width of one bucket
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace intertubes
