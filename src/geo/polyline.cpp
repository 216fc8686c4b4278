#include "geo/polyline.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace intertubes::geo {

BoundingBox BoundingBox::expanded_km(double km) const noexcept {
  const double dlat = km / (kEarthRadiusKm * kPi / 180.0);
  const double mid_lat = deg_to_rad((min_lat + max_lat) / 2.0);
  const double coslat = std::max(0.1, std::cos(mid_lat));
  const double dlon = dlat / coslat;
  return {min_lat - dlat, max_lat + dlat, min_lon - dlon, max_lon + dlon};
}

bool BoundingBox::intersects(const BoundingBox& other) const noexcept {
  return !(other.min_lat > max_lat || other.max_lat < min_lat || other.min_lon > max_lon ||
           other.max_lon < min_lon);
}

Polyline::Polyline(std::vector<GeoPoint> points) : points_(std::move(points)) {
  IT_CHECK_MSG(points_.size() >= 2, "polyline needs at least 2 points");
  cumulative_km_.resize(points_.size());
  cumulative_km_[0] = 0.0;
  bounds_ = {points_[0].lat_deg, points_[0].lat_deg, points_[0].lon_deg, points_[0].lon_deg};
  for (std::size_t i = 1; i < points_.size(); ++i) {
    cumulative_km_[i] = cumulative_km_[i - 1] + distance_km(points_[i - 1], points_[i]);
    bounds_.min_lat = std::min(bounds_.min_lat, points_[i].lat_deg);
    bounds_.max_lat = std::max(bounds_.max_lat, points_[i].lat_deg);
    bounds_.min_lon = std::min(bounds_.min_lon, points_[i].lon_deg);
    bounds_.max_lon = std::max(bounds_.max_lon, points_[i].lon_deg);
  }
  length_km_ = cumulative_km_.back();
}

GeoPoint Polyline::point_at_km(double d) const {
  IT_CHECK(!points_.empty());
  if (d <= 0.0) return points_.front();
  if (d >= length_km_) return points_.back();
  // Binary search for the segment containing distance d.
  const auto it = std::upper_bound(cumulative_km_.begin(), cumulative_km_.end(), d);
  const auto idx = static_cast<std::size_t>(it - cumulative_km_.begin());
  const std::size_t seg = idx - 1;
  const double seg_len = cumulative_km_[seg + 1] - cumulative_km_[seg];
  const double t = seg_len > 0.0 ? (d - cumulative_km_[seg]) / seg_len : 0.0;
  return interpolate(points_[seg], points_[seg + 1], t);
}

GeoPoint Polyline::point_at_fraction(double t) const { return point_at_km(t * length_km_); }

std::vector<GeoPoint> Polyline::sample_every_km(double spacing_km) const {
  IT_CHECK(spacing_km > 0.0);
  std::vector<GeoPoint> out;
  for (double d = 0.0; d < length_km_; d += spacing_km) out.push_back(point_at_km(d));
  out.push_back(points_.back());
  return out;
}

double Polyline::distance_to_km(const GeoPoint& p) const {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
    best = std::min(best, point_to_segment_km(p, points_[i], points_[i + 1]));
  }
  return best;
}

bool Polyline::within_km(const GeoPoint& p, double km) const {
  for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
    if (point_to_segment_km(p, points_[i], points_[i + 1]) <= km) return true;
  }
  return false;
}

Polyline Polyline::reversed() const {
  std::vector<GeoPoint> pts(points_.rbegin(), points_.rend());
  return Polyline(std::move(pts));
}

Polyline Polyline::joined_with(const Polyline& other, double tol_km) const {
  IT_CHECK_MSG(distance_km(back(), other.front()) <= tol_km,
               "polylines do not meet at a common point");
  std::vector<GeoPoint> pts = points_;
  pts.insert(pts.end(), other.points().begin() + 1, other.points().end());
  return Polyline(std::move(pts));
}

double fraction_within_buffer(const Polyline& line, const Polyline& reference, double buffer_km,
                              double sample_km) {
  IT_CHECK(buffer_km > 0.0);
  const auto samples = line.sample_every_km(sample_km);
  if (samples.empty()) return 0.0;
  const BoundingBox ref_box = reference.bounds().expanded_km(buffer_km);
  std::size_t within = 0;
  for (const auto& p : samples) {
    if (!ref_box.contains(p)) continue;
    if (reference.distance_to_km(p) <= buffer_km) ++within;
  }
  return static_cast<double>(within) / static_cast<double>(samples.size());
}

bool covers_at_least(const Polyline& line, const Polyline& reference, double buffer_km,
                     double sample_km, double min_fraction) {
  IT_CHECK(buffer_km > 0.0);
  IT_CHECK(sample_km > 0.0);
  // The samples of line.sample_every_km(sample_km), produced only as far
  // as they are read: first count them, then walk the same distances.
  std::size_t count = 1;
  for (double d = 0.0; d < line.length_km(); d += sample_km) ++count;
  const double n = static_cast<double>(count);
  const BoundingBox ref_box = reference.bounds().expanded_km(buffer_km);
  // The final fraction is within / n for some within between the hits so
  // far and the hits so far plus the samples left.  Dividing by n is
  // monotone, so once either end settles the comparison, the samples left
  // cannot change it.
  std::size_t within = 0;
  double d = 0.0;
  for (std::size_t i = 0; i < count; ++i, d += sample_km) {
    if (static_cast<double>(within) / n >= min_fraction) return true;
    if (static_cast<double>(within + (count - i)) / n < min_fraction) return false;
    const GeoPoint p = i + 1 < count ? line.point_at_km(d) : line.back();
    if (ref_box.contains(p) && reference.within_km(p, buffer_km)) ++within;
  }
  return static_cast<double>(within) / n >= min_fraction;
}

double route_similarity(const Polyline& a, const Polyline& b, double buffer_km, double sample_km) {
  if (!a.bounds().expanded_km(buffer_km).intersects(b.bounds())) return 0.0;
  const double f1 = fraction_within_buffer(a, b, buffer_km, sample_km);
  const double f2 = fraction_within_buffer(b, a, buffer_km, sample_km);
  return (f1 + f2) / 2.0;
}

}  // namespace intertubes::geo
