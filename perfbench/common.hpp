// Shared plumbing for the perfbench workloads: wall-clock timing, order
// statistics, output digests, peak RSS, and the result record that main()
// prints as a report plus one JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "trace.hpp"
#include "util/stats.hpp"

namespace perfbench {

using intertubes::median;
using intertubes::percentile;  // p in [0, 100]

/// Seed of every workload's geography: the transport network, the ISP
/// deployments and the generated worlds.  Fixed, so `--seed` moves the
/// inputs but not the size of the world, and with it the amount of work.
/// 0x1257 is the paper seed of EXPERIMENTS.md.
constexpr std::uint64_t kWorldSeed = 0x1257;

/// Every time and every rate in the benchmark comes from this clock: wall
/// time, never CPU time.
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a over the bytes fed in.  Doubles are hashed by bit pattern, so a
/// digest changes on any change of an output value.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const noexcept { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A rate as measured: a count of operations over wall-clock seconds.
struct Rate {
  std::string name;
  double count = 0.0;
  double seconds = 0.0;
  double value = 0.0;  ///< count / seconds
};

/// What a workload hands back to main().
struct Result {
  std::uint64_t attempted = 0;  ///< operations issued
  std::uint64_t failed = 0;     ///< operations that returned an error
  std::vector<std::string> check_failures;  ///< output checks that did not hold
  std::string digest;           ///< digest of the deterministic outputs
  /// The gated figures, in BENCHMARK.json order minus peak_rss_mb.
  std::vector<Metric> gated;
  /// The workload's figures under their own names (human report).
  std::vector<Metric> figures;
  /// Every rate among the figures, with the count and seconds it divides.
  std::vector<Rate> rates;
  /// Per-layer figures of a traced run: (feeds, metric).
  std::vector<std::pair<std::string, Metric>> layers;
  /// The traced run's per-layer self-time table.
  trace::Table trace_table;
  /// Peak resident set (VmHWM, MB) read where the workload's measured work
  /// ends, before the benchmark's own checking allocates.
  double peak_rss_mb = 0.0;
  /// Run context lines (world size, executor size, ...).
  std::vector<std::pair<std::string, std::string>> context;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  bool correct() const noexcept { return check_failures.empty(); }
};

struct Options {
  std::string workload;
  /// Drives the inputs: published maps and corpus (paper), the request and
  /// delta script (serve-live), the trial draws (campaign-10x).
  std::uint64_t seed = kWorldSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace file for traced runs
  /// Executor size: campaign-10x's executor and serve-live's checking pool
  /// (0 = min(4, hardware threads)).
  std::size_t threads = 0;
  /// Trial-count divisor for the campaign-10x self-test (1 = full size).
  std::size_t shrink = 1;
};

Result run_paper(const Options& options);
Result run_serve_live(const Options& options);
Result run_campaign(const Options& options);

}  // namespace perfbench
