// Polylines on the sphere: the geometry of fiber conduits, roads, rails
// and pipelines.  Supports length, walking to a distance/fraction,
// resampling at fixed spacing, and bounding boxes.
#pragma once

#include <vector>

#include "geo/geo_point.hpp"

namespace intertubes::geo {

struct BoundingBox {
  double min_lat = 0.0;
  double max_lat = 0.0;
  double min_lon = 0.0;
  double max_lon = 0.0;

  bool contains(const GeoPoint& p) const noexcept {
    return p.lat_deg >= min_lat && p.lat_deg <= max_lat && p.lon_deg >= min_lon &&
           p.lon_deg <= max_lon;
  }
  /// Grow the box by roughly `km` in every direction.
  BoundingBox expanded_km(double km) const noexcept;
  bool intersects(const BoundingBox& other) const noexcept;
};

/// An immutable-after-construction sequence of ≥2 vertices joined by
/// great-circle segments.  Invariant: at least two points, finite length.
class Polyline {
 public:
  Polyline() = default;
  explicit Polyline(std::vector<GeoPoint> points);

  static Polyline straight(const GeoPoint& a, const GeoPoint& b) {
    return Polyline(std::vector<GeoPoint>{a, b});
  }

  const std::vector<GeoPoint>& points() const noexcept { return points_; }
  std::size_t size() const noexcept { return points_.size(); }
  bool empty() const noexcept { return points_.empty(); }
  const GeoPoint& front() const { return points_.front(); }
  const GeoPoint& back() const { return points_.back(); }

  /// Total great-circle length in km (cached at construction).
  double length_km() const noexcept { return length_km_; }

  /// Point at distance d km from the start (clamped to [0, length]).
  GeoPoint point_at_km(double d) const;

  /// Point at fraction t of the total length, t in [0, 1].
  GeoPoint point_at_fraction(double t) const;

  /// Evenly spaced samples every `spacing_km`, always including both
  /// endpoints.  spacing must be > 0.
  std::vector<GeoPoint> sample_every_km(double spacing_km) const;

  /// Minimum distance (km) from p to this polyline.
  double distance_to_km(const GeoPoint& p) const;

  /// distance_to_km(p) <= km, stopping at the first segment within reach.
  bool within_km(const GeoPoint& p, double km) const;

  /// A polyline traversing the same points in reverse.
  Polyline reversed() const;

  /// Concatenate: `other` must start where this ends (within tol_km).
  Polyline joined_with(const Polyline& other, double tol_km = 1.0) const;

  BoundingBox bounds() const noexcept { return bounds_; }

 private:
  std::vector<GeoPoint> points_;
  std::vector<double> cumulative_km_;  // cumulative length at each vertex
  double length_km_ = 0.0;
  BoundingBox bounds_{};
};

/// Fraction (0..1) of `line` whose samples lie within `buffer_km` of
/// `reference` — the core of the co-location analysis.  Sampling step is
/// `sample_km`.
double fraction_within_buffer(const Polyline& line, const Polyline& reference, double buffer_km,
                              double sample_km = 10.0);

/// fraction_within_buffer(line, reference, buffer_km, sample_km) >=
/// min_fraction, exactly, without always scanning every sample: it stops
/// as soon as the samples left can no longer change the answer.
bool covers_at_least(const Polyline& line, const Polyline& reference, double buffer_km,
                     double sample_km, double min_fraction);

/// Symmetric geometric similarity of two polylines: mean of the two
/// directed "fraction within buffer" measures.  Used to detect that two
/// published fiber routes occupy the same conduit.
double route_similarity(const Polyline& a, const Polyline& b, double buffer_km,
                        double sample_km = 10.0);

}  // namespace intertubes::geo
