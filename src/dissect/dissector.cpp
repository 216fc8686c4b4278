#include "dissect/dissector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/latency.hpp"
#include "sim/executor.hpp"
#include "util/check.hpp"

namespace intertubes::dissect {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::shared_ptr<const route::PathEngine> compile_fiber_engine(const core::FiberMap& map,
                                                              const transport::CityDatabase& cities) {
  std::vector<route::EdgeSpec> edges;
  edges.reserve(map.conduits().size());
  for (const auto& conduit : map.conduits()) {
    edges.push_back({conduit.a, conduit.b, conduit.length_km});
  }
  return std::make_shared<const route::PathEngine>(static_cast<route::NodeId>(cities.size()),
                                                   std::move(edges));
}

/// The nearest-rank index of percentile p among `size` (> 0) samples.
std::size_t percentile_rank(std::size_t size, double p) {
  return std::min(size - 1, static_cast<std::size_t>(p * static_cast<double>(size - 1) + 0.5));
}

/// Per-source-row pair counts.  Integer sums are exact, so folding the
/// rows in any order gives the same totals.
struct RowCounts {
  std::size_t fiber_unreachable = 0;
  std::size_t row_unreachable = 0;
  std::size_t within_target = 0;
};

}  // namespace

LatencyDissector::LatencyDissector(const core::FiberMap& map,
                                   const transport::CityDatabase& cities,
                                   const transport::RightOfWayRegistry& row)
    : fiber_(compile_fiber_engine(map, cities)),
      nodes_(map.nodes()),
      cities_(cities),
      row_(row) {
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
}

LatencyDissector::LatencyDissector(std::shared_ptr<const route::PathEngine> fiber_engine,
                                   std::vector<transport::CityId> nodes,
                                   const transport::CityDatabase& cities,
                                   const transport::RightOfWayRegistry& row)
    : fiber_(std::move(fiber_engine)), nodes_(std::move(nodes)), cities_(cities), row_(row) {
  IT_CHECK(fiber_ != nullptr);
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  for (transport::CityId c : nodes_) IT_CHECK(c < fiber_->num_nodes());
}

PairDissection LatencyDissector::decompose(transport::CityId a, transport::CityId b,
                                           double fiber_km, double row_km) const {
  PairDissection d;
  d.a = a;
  d.b = b;
  const double gc_km = geo::distance_km(cities_.city(a).location, cities_.city(b).location);
  d.clat_ms = geo::c_latency_ms(gc_km);
  d.los_ms = geo::los_delay_ms(gc_km);
  d.fiber_reachable = std::isfinite(fiber_km);
  d.row_reachable = std::isfinite(row_km);
  d.fiber_ms = d.fiber_reachable ? geo::fiber_delay_ms(fiber_km) : kInf;
  d.row_ms = d.row_reachable ? geo::fiber_delay_ms(row_km) : kInf;
  d.refraction_ms = d.los_ms - d.clat_ms;
  d.row_inflation_ms = d.row_reachable ? d.row_ms - d.los_ms : 0.0;
  if (d.fiber_reachable && d.row_reachable) {
    d.detour_ms = d.fiber_ms - d.row_ms;
    d.achievable_ms = std::max(0.0, d.detour_ms);
  }
  d.stretch = d.fiber_reachable && d.clat_ms > 0.0 ? d.fiber_ms / d.clat_ms : kInf;
  return d;
}

DissectionStudy LatencyDissector::dissect(sim::Executor* executor,
                                          const DissectOptions& options) const {
  DissectionStudy study;
  study.nodes = nodes_;
  study.target_factor = options.target_factor;
  const std::size_t n = nodes_.size();
  if (n < 2) return study;
  const route::PathEngine& row_engine = row_.path_engine();
  IT_CHECK(nodes_.back() < row_engine.num_nodes());

  // One pass per source: its two distance rows, then its pairs (i, j > i)
  // decomposed into their row-major slots and counted.  Each row comes
  // from distances_into, the primitive behind distance_rows, and each
  // cell is a pure function of the two rows, so the pairs and counts are
  // bit-identical for any thread count.  The last node owns no pair.
  study.pairs.resize(n * (n - 1) / 2);
  std::vector<RowCounts> counts(n - 1);
  const auto sweep = [&](std::size_t begin, std::size_t end) {
    const auto fiber_ws = fiber_->lease_workspace();
    const auto row_ws = row_engine.lease_workspace();
    std::vector<double> fiber_km(fiber_->num_nodes());
    std::vector<double> row_km(row_engine.num_nodes());
    for (std::size_t i = begin; i < end; ++i) {
      const auto source = static_cast<route::NodeId>(nodes_[i]);
      fiber_->distances_into(source, {}, *fiber_ws, fiber_km.data());
      row_engine.distances_into(source, {}, *row_ws, row_km.data());
      PairDissection* out = study.pairs.data() + i * (2 * n - i - 1) / 2;
      RowCounts& count = counts[i];
      for (std::size_t j = i + 1; j < n; ++j, ++out) {
        const transport::CityId b = nodes_[j];
        *out = decompose(nodes_[i], b, fiber_km[b], row_km[b]);
        if (!out->fiber_reachable) {
          ++count.fiber_unreachable;
        } else if (out->fiber_ms <= options.target_factor * out->clat_ms) {
          ++count.within_target;
        }
        if (!out->row_reachable) ++count.row_unreachable;
      }
    }
  };
  if (executor == nullptr) {
    sweep(0, n - 1);
  } else {
    executor->for_each_chunk(0, n - 1, /*chunk=*/0, sweep);
  }

  for (const RowCounts& count : counts) {
    study.fiber_unreachable += count.fiber_unreachable;
    study.row_unreachable += count.row_unreachable;
    study.within_target += count.within_target;
  }
  // total_achievable_ms is a floating-point sum, so it folds serially in
  // (i, j) order: per-row partial sums would move its bits.
  std::vector<double> stretches;
  stretches.reserve(study.pairs.size() - study.fiber_unreachable);
  for (const PairDissection& d : study.pairs) {
    if (!d.fiber_reachable) continue;
    stretches.push_back(d.stretch);
    if (d.row_reachable) study.total_achievable_ms += d.achievable_ms;
  }
  // nth_element puts at each rank the element a full sort would (+inf
  // stretches of coincident cities included), without sorting the rest.
  if (!stretches.empty()) {
    const auto median = stretches.begin() + percentile_rank(stretches.size(), 0.5);
    const auto p95 = stretches.begin() + percentile_rank(stretches.size(), 0.95);
    std::nth_element(stretches.begin(), median, stretches.end());
    study.median_stretch = *median;
    // [median, end) now holds exactly the ranks from the median up.
    std::nth_element(median, p95, stretches.end());
    study.p95_stretch = *p95;
  }
  return study;
}

PairDissection LatencyDissector::dissect_pair(transport::CityId a, transport::CityId b) const {
  IT_CHECK(a < fiber_->num_nodes() && b < fiber_->num_nodes());
  // One leased target search per engine, stopped once b settles.  The
  // search settles the same prefix as the full run behind distances_into,
  // the sweep's row primitive, so the cell is bitwise equal to the
  // corresponding sweep entry (+inf when b is unreachable).
  const auto distance_km = [a, b](const route::PathEngine& engine) {
    const auto ws = engine.lease_workspace();
    const auto target = static_cast<route::NodeId>(b);
    engine.search_targets(static_cast<route::NodeId>(a),
                          std::span<const route::NodeId>(&target, 1), {}, *ws);
    return ws->settled(target) ? ws->distance(target) : kInf;
  };
  return decompose(a, b, distance_km(*fiber_), distance_km(row_.path_engine()));
}

}  // namespace intertubes::dissect
