// Differential property of geo::covers_at_least, the early-exit coverage
// test behind pipeline step 1's snapping, against the full scan of
// geo::fraction_within_buffer: for every threshold f,
//
//   covers_at_least(line, ref, buffer, sample, f) ==
//       (fraction_within_buffer(line, ref, buffer, sample) >= f)
//
// The thresholds are 0, 1, every boundary k/n of the line's sample count
// n, and the doubles on either side of each boundary — exactly the values
// where an early exit that miscounted would flip the answer.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "geo/polyline.hpp"
#include "prop/prop.hpp"
#include "prop/prop_gtest.hpp"

namespace intertubes::testing {
namespace {

struct CoverageCase {
  std::vector<geo::GeoPoint> line;
  std::vector<geo::GeoPoint> reference;
  double buffer_km = 1.0;
  double sample_km = 1.0;
};

/// `count` vertices from `start`, each up to `step_km` on from the last.
std::vector<geo::GeoPoint> random_walk(Rng& rng, geo::GeoPoint start, std::size_t count,
                                       double step_km) {
  std::vector<geo::GeoPoint> points{start};
  while (points.size() < count) {
    points.push_back(
        geo::destination(points.back(), rng.uniform(0.0, 360.0), rng.uniform(1.0, step_km)));
  }
  return points;
}

prop::Gen<CoverageCase> coverage_cases() {
  prop::Gen<CoverageCase> gen;
  gen.create = [](Rng& rng) {
    CoverageCase c;
    const geo::GeoPoint start{rng.uniform(28.0, 46.0), rng.uniform(-120.0, -75.0)};
    c.line = random_walk(rng, start, 2 + rng.next_below(5), 150.0);
    if (rng.chance(0.6)) {
      // A noisy trace of the line, as a published map is of its corridor:
      // partial coverage, the case where the thresholds matter.
      for (const auto& p : c.line) {
        c.reference.push_back(
            geo::destination(p, rng.uniform(0.0, 360.0), rng.uniform(0.0, 25.0)));
      }
      if (c.reference.size() > 2 && rng.chance(0.5)) c.reference.pop_back();
    } else {
      c.reference = random_walk(rng, geo::destination(start, rng.uniform(0.0, 360.0), 40.0),
                                2 + rng.next_below(5), 150.0);
    }
    c.buffer_km = rng.uniform(1.0, 20.0);
    c.sample_km = rng.uniform(3.0, 40.0);
    return c;
  };
  gen.shrink = [](const CoverageCase& c) {
    // Drop one vertex of either polyline, keeping at least two.
    std::vector<CoverageCase> out;
    for (auto member : {&CoverageCase::line, &CoverageCase::reference}) {
      const auto& points = c.*member;
      for (std::size_t i = 0; points.size() > 2 && i < points.size(); ++i) {
        CoverageCase smaller = c;
        (smaller.*member).erase((smaller.*member).begin() + static_cast<std::ptrdiff_t>(i));
        out.push_back(std::move(smaller));
      }
    }
    return out;
  };
  gen.describe = [](const CoverageCase& c) {
    std::ostringstream out;
    out.precision(17);
    auto put = [&out](const char* name, const std::vector<geo::GeoPoint>& points) {
      out << name << ":";
      for (const auto& p : points) out << " (" << p.lat_deg << ", " << p.lon_deg << ")";
      out << "\n";
    };
    put("line", c.line);
    put("reference", c.reference);
    out << "buffer_km " << c.buffer_km << ", sample_km " << c.sample_km;
    return out.str();
  };
  return gen;
}

TEST(PropGeo, CoversAtLeastEqualsFractionThreshold) {
  std::size_t partial = 0;  // trials whose fraction lies strictly inside (0, 1)
  const prop::Property<CoverageCase> property =
      [&partial](const CoverageCase& c) -> std::optional<std::string> {
    const geo::Polyline line(c.line);
    const geo::Polyline reference(c.reference);
    const double fraction =
        geo::fraction_within_buffer(line, reference, c.buffer_km, c.sample_km);
    if (fraction > 0.0 && fraction < 1.0) ++partial;
    const double n = static_cast<double>(line.sample_every_km(c.sample_km).size());
    std::vector<double> thresholds;
    for (double k = 0.0; k <= n; k += 1.0) {
      const double boundary = k / n;
      thresholds.push_back(boundary);
      thresholds.push_back(std::nextafter(boundary, -1.0));
      thresholds.push_back(std::nextafter(boundary, 2.0));
    }
    for (const double f : thresholds) {
      const bool expected = fraction >= f;
      if (geo::covers_at_least(line, reference, c.buffer_km, c.sample_km, f) != expected) {
        std::ostringstream why;
        why.precision(17);
        why << "covers_at_least(f = " << f << ") = " << !expected << " but fraction "
            << fraction << " of " << n << " samples";
        return why.str();
      }
    }
    return std::nullopt;
  };
  const auto result = prop::check<CoverageCase>("covers_at_least_vs_fraction", coverage_cases(),
                                                property);
  EXPECT_PROP(result);
  // The generator must reach the interesting region, or the boundaries
  // above are all trivially 0 or 1.  (A single-trial repro run is exempt.)
  if (result.trials_run >= 16) {
    EXPECT_GT(partial, result.trials_run / 4);
  }
}

}  // namespace
}  // namespace intertubes::testing
