// perfbench: the repo benchmark.  One command, three seeded workloads.
//
//   perfbench --workload paper|serve-live|campaign-10x --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--threads T] [--shrink K]
//
// Prints a human report, then, as its last line, one JSON object with the
// run's correctness, operation counts and metrics: the gated end-to-end
// figures when --trace 0, the per-layer figures when --trace 1.  Exits 1
// when any output check fails, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

namespace perfbench {

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench

namespace {

using perfbench::Metric;

// The per-layer metrics of the result line (BENCHMARK.json per_layer), the
// same names for every workload.  A span's self time is reported as its
// share of the traced operations, so a layer a workload never calls reads
// 0 %; the absolute times are in the report above the result line.
constexpr const char* kSpanShares[] = {
    "core.inputs",         "records.index",        "core.step1",
    "core.step2",          "core.step3",           "core.step4",
    "traceroute.l3",       "traceroute.campaign",  "traceroute.overlay",
    "serve.derive",        "optimize.robustness",  "optimize.peering",
    "optimize.expansion",  "optimize.latency",     "serve.key",
    "serve.kernel_path",   "serve.kernel_cut",     "serve.kernel_hamming",
    "serve.kernel_risk",   "serve.kernel_top",     "dissect.pair",
    "cascade.whatif",      "serve.engine",         "serve.dispatch",
    "serve.live_apply",    "serve.install",        "cascade.run",
    "cascade.trial",       "route.forest",         "sim.run",
    "sim.trial",           "route.rows",           "dissect.sweep",
};

struct Counter {
  const char* name;
  const char* unit;
};
constexpr Counter kCounters[] = {
    {"core.step1_snap_fallbacks", "count"},  {"core.step2_tenants_inferred", "count"},
    {"core.step4_links_rerouted", "count"},  {"core.conduits", "count"},
    {"core.links", "count"},                 {"traceroute.flows", "count"},
    {"traceroute.mapped_ratio", "ratio"},    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},      {"serve.cache_invalidations", "count"},
    {"serve.stale_reads", "count"},          {"serve.point_count", "count"},
    {"serve.path_count", "count"},           {"serve.cut_count", "count"},
    {"serve.dissect_count", "count"},        {"serve.cascade_count", "count"},
    {"cascade.rounds_mean", "rounds"},       {"sim.cascade_efficiency", "ratio"},
    {"sim.campaign_efficiency", "ratio"},    {"trace.overhead_pct", "%"},
};

std::vector<Metric> per_layer_metrics(const perfbench::Result& res) {
  const auto& table = res.trace_table;
  const double measured = table.measured_s > 0.0 ? table.measured_s : 1.0;
  std::vector<Metric> out;
  for (const char* span : kSpanShares) {
    out.push_back({std::string(span) + ".share_pct",
                   100.0 * perfbench::trace::self_seconds(table, span) / measured, "%"});
  }
  out.push_back({"trace.uncovered_pct", 100.0 * table.uncovered_s / measured, "%"});
  out.push_back({"trace.coverage_pct", 100.0 * table.min_coverage, "%"});
  out.push_back({"trace.spans", static_cast<double>(table.spans), "count"});
  for (const Counter& counter : kCounters) {
    double value = 0.0;
    for (const auto& [feeds, m] : res.layers) {
      if (m.name == counter.name) value = m.value;
    }
    out.push_back({counter.name, value, counter.unit});
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload paper|serve-live|campaign-10x "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--threads T] "
               "[--shrink K]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value, nullptr, 0);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value != "0";
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else if (arg == "--threads") {
        options.threads = std::stoul(value);
      } else if (arg == "--shrink") {
        options.shrink = std::max<std::size_t>(1, std::stoul(value));
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.threads == 0) {
    options.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  }

  perfbench::Result res;
  try {
    if (options.workload == "paper") {
      res = perfbench::run_paper(options);
    } else if (options.workload == "serve-live") {
      res = perfbench::run_serve_live(options);
    } else if (options.workload == "campaign-10x") {
      res = perfbench::run_campaign(options);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  const double rss = res.peak_rss_mb;

  // Human report.
  std::printf("== perfbench %s, seed %llu, world seed %llu, %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(perfbench::kWorldSeed),
              options.trace ? "traced" : "untraced");
  std::printf("  nproc %u, compiler %s, build %s, executor threads %zu\n",
              std::thread::hardware_concurrency(), compiler().c_str(), PERFBENCH_BUILD_TYPE,
              options.threads);
  for (const auto& [key, value] : res.context) {
    std::printf("  %s: %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : res.figures) {
    std::printf("  %-24s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-24s %14.6f MB\n", "peak_rss_mb", rss);
  for (const auto& r : res.rates) {
    std::printf("  rate %s = %.17g / %.17g s = %.17g\n", r.name.c_str(), r.count, r.seconds,
                r.value);
  }
  std::printf("  operations attempted %llu, failed %llu, digest %s\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), res.digest.c_str());
  if (options.trace) {
    std::printf("-- per-layer self time (traced pass)\n%s",
                perfbench::trace::render(res.trace_table).c_str());
    std::printf("-- per-layer figures, next to the end-to-end figure each feeds\n");
    for (const auto& [feeds, m] : res.layers) {
      std::printf("  %-16s <- %-30s %14.6f %s\n", feeds.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const auto& failure : res.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  // The result line.
  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = per_layer_metrics(res);
  } else {
    metrics = res.gated;
    metrics.push_back({"peak_rss_mb", rss, "MB"});
  }
  std::string json = "{\"correct\": ";
  json += res.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return res.correct() && res.failed == 0 ? 0 : 1;
}
