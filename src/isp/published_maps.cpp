#include "isp/published_maps.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace intertubes::isp {

using transport::CityId;
using transport::CorridorId;

namespace {

geo::Polyline jittered(const geo::Polyline& line, double noise_km, Rng& rng) {
  if (noise_km <= 0.0) return line;
  std::vector<geo::GeoPoint> pts = line.points();
  // Endpoints stay exact (cities are well known); interior vertices wobble.
  for (std::size_t i = 1; i + 1 < pts.size(); ++i) {
    const double bearing = rng.uniform(0.0, 360.0);
    const double dist = std::abs(rng.normal(0.0, noise_km));
    pts[i] = geo::destination(pts[i], bearing, dist);
  }
  return geo::Polyline(std::move(pts));
}

}  // namespace

PublishedMap render_published_map(const GroundTruth& truth,
                                  const transport::RightOfWayRegistry& row, IspId isp,
                                  const PublishParams& params) {
  IT_CHECK(isp < truth.num_isps());
  const auto& prof = truth.profiles()[isp];
  Rng rng(mix64(params.seed ^ (0xc0ffee11ULL * (isp + 1))));

  PublishedMap map;
  map.isp = isp;
  map.isp_name = prof.name;
  map.geocoded = prof.publishes_geocoded_map;

  std::set<CityId> nodes;
  for (std::size_t idx : truth.link_indices_of(isp)) {
    const TrueLink& link = truth.links()[idx];
    if (rng.chance(params.omit_link_prob)) continue;  // map lags deployment
    PublishedLink pub;
    pub.a = link.a;
    pub.b = link.b;
    if (map.geocoded) {
      // Published geometry is the concatenated corridor geometry with
      // georeferencing jitter.
      transport::RowPath path;
      path.corridors = link.corridors;
      path.cities.push_back(link.a);
      // Reconstruct visited city sequence by walking the corridors.
      CityId cur = link.a;
      for (CorridorId cid : link.corridors) {
        const auto& c = row.corridor(cid);
        cur = (c.a == cur) ? c.b : c.a;
        path.cities.push_back(cur);
      }
      IT_CHECK(cur == link.b);
      const geo::Polyline exact = row.path_geometry(path);
      pub.geometry = jittered(exact, params.coord_noise_km, rng);
    }
    nodes.insert(link.a);
    nodes.insert(link.b);
    map.links.push_back(std::move(pub));
  }
  map.nodes.assign(nodes.begin(), nodes.end());
  return map;
}

std::vector<PublishedMap> render_all_published_maps(const GroundTruth& truth,
                                                    const transport::RightOfWayRegistry& row,
                                                    const PublishParams& params) {
  std::vector<PublishedMap> maps;
  maps.reserve(truth.num_isps());
  for (IspId isp = 0; isp < truth.num_isps(); ++isp) {
    maps.push_back(render_published_map(truth, row, isp, params));
  }
  return maps;
}

namespace {

std::string format_geometry(const geo::Polyline& line) {
  std::string out;
  char buf[64];
  for (const geo::GeoPoint& p : line.points()) {
    if (!out.empty()) out.push_back(' ');
    std::snprintf(buf, sizeof(buf), "%.6f,%.6f", p.lon_deg, p.lat_deg);
    out += buf;
  }
  return out;
}

std::optional<geo::Polyline> parse_geometry(std::string_view field) {
  std::vector<geo::GeoPoint> pts;
  for (const std::string& pair : split(field, " ")) {
    const auto comma = pair.find(',');
    if (comma == std::string::npos) return std::nullopt;
    const auto lon = parse_double(std::string_view(pair).substr(0, comma));
    const auto lat = parse_double(std::string_view(pair).substr(comma + 1));
    if (!lon || !lat || *lon < -180.0 || *lon > 180.0 || *lat < -90.0 || *lat > 90.0) {
      return std::nullopt;
    }
    pts.push_back(geo::GeoPoint{*lat, *lon});
  }
  if (pts.size() < 2) return std::nullopt;
  return geo::Polyline(std::move(pts));
}

}  // namespace

std::string serialize_published_maps(const std::vector<PublishedMap>& maps,
                                     const transport::CityDatabase& cities) {
  std::string out;
  out += "# InterTubes published-map archive\n";
  out += "# map\tisp-name\tgeocoded\n";
  out += "# link\tfrom\tto[\tlon,lat lon,lat ...]\n";
  for (const PublishedMap& map : maps) {
    out += "map\t" + map.isp_name + "\t" + (map.geocoded ? "1" : "0") + "\n";
    for (const PublishedLink& link : map.links) {
      out += "link\t" + cities.city(link.a).display_name() + "\t" +
             cities.city(link.b).display_name();
      if (link.geometry.has_value()) {
        out += "\t" + format_geometry(*link.geometry);
      }
      out += "\n";
    }
  }
  return out;
}

std::vector<PublishedMap> parse_published_maps(const std::string& text,
                                               const transport::CityDatabase& cities,
                                               const std::vector<IspProfile>& profiles,
                                               DiagnosticSink& sink, const std::string& source) {
  std::vector<PublishedMap> maps;
  bool block_valid = false;  // links before any valid `map` header are skipped
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    std::string_view line(text.data() + pos,
                          (nl == std::string::npos ? text.size() : nl) - pos);
    pos = (nl == std::string::npos) ? text.size() + 1 : nl + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;

    const std::vector<std::string> fields = split_fields(line, '\t');
    const auto fail = [&](const std::string& msg) {
      sink.report(Severity::Error, source, line_no, msg);
    };

    if (fields[0] == "map") {
      block_valid = false;
      if (fields.size() != 3) {
        fail("map header: expected 3 fields, got " + std::to_string(fields.size()) +
             "; block quarantined");
        continue;
      }
      const IspId isp = find_profile(profiles, fields[1]);
      if (isp == kNoIsp) {
        fail("map header: unknown ISP \"" + fields[1] + "\"; block quarantined");
        continue;
      }
      if (fields[2] != "0" && fields[2] != "1") {
        fail("map header: geocoded flag must be 0 or 1, got \"" + fields[2] +
             "\"; block quarantined");
        continue;
      }
      PublishedMap map;
      map.isp = isp;
      map.isp_name = profiles[isp].name;
      map.geocoded = fields[2] == "1";
      maps.push_back(std::move(map));
      block_valid = true;
    } else if (fields[0] == "link") {
      if (!block_valid) continue;  // inside a quarantined block: already reported
      PublishedMap& map = maps.back();
      if (fields.size() != (map.geocoded ? 4u : 3u)) {
        fail("link: expected " + std::to_string(map.geocoded ? 4 : 3) + " fields, got " +
             std::to_string(fields.size()));
        continue;
      }
      const auto a = cities.find(fields[1]);
      const auto b = cities.find(fields[2]);
      if (!a || !b) {
        fail("link: unknown city \"" + (a ? fields[2] : fields[1]) + "\"");
        continue;
      }
      if (*a == *b) {
        fail("link: endpoints must differ (\"" + fields[1] + "\")");
        continue;
      }
      PublishedLink link;
      link.a = *a;
      link.b = *b;
      if (map.geocoded) {
        link.geometry = parse_geometry(fields[3]);
        if (!link.geometry.has_value()) {
          fail("link: malformed geometry (need >=2 valid lon,lat pairs)");
          continue;
        }
      }
      map.links.push_back(std::move(link));
    } else {
      fail("unknown record type \"" + fields[0] + "\"");
    }
  }
  // Rebuild node lists from the surviving links' endpoints.
  for (PublishedMap& map : maps) {
    std::set<CityId> nodes;
    for (const PublishedLink& link : map.links) {
      nodes.insert(link.a);
      nodes.insert(link.b);
    }
    map.nodes.assign(nodes.begin(), nodes.end());
  }
  return maps;
}

}  // namespace intertubes::isp
