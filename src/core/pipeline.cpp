#include "core/pipeline.hpp"

#include <algorithm>
#include <optional>

namespace intertubes::core {

using isp::IspId;
using isp::PublishedMap;
using transport::CityId;
using transport::Corridor;
using transport::CorridorId;

MapBuilder::MapBuilder(const transport::CityDatabase& cities,
                       const transport::RightOfWayRegistry& row,
                       const std::vector<isp::IspProfile>& profiles,
                       const records::Corpus& corpus, PipelineParams params)
    : cities_(cities),
      row_(row),
      profiles_(profiles),
      corpus_(corpus),
      params_(std::move(params)),
      index_(corpus.documents),
      inference_(cities, corpus.documents, index_, records::EntityExtractor(cities, profiles),
                 profiles) {}

std::vector<CorridorId> MapBuilder::snap_geometry(CityId a, CityId b,
                                                  const geo::Polyline& geometry) const {
  // Candidate corridors: covered by the published geometry's buffer.
  const geo::BoundingBox geom_box = geometry.bounds().expanded_km(params_.snap_buffer_km);
  std::vector<char> candidate(row_.corridors().size(), 0);
  for (const Corridor& c : row_.corridors()) {
    if (!geom_box.intersects(c.path.bounds())) continue;
    if (geo::covers_at_least(c.path, geometry, params_.snap_buffer_km, 15.0,
                             params_.snap_coverage)) {
      candidate[c.id] = 1;
    }
  }
  // Shortest path from a to b restricted to candidates.
  const auto path = row_.shortest_path(a, b, [&](const Corridor& c) {
    return candidate[c.id] ? c.length_km : std::numeric_limits<double>::infinity();
  });
  return path.corridors;
}

namespace {

/// Validate one published map before anything is ingested, so a bad
/// record never leaves partial state in the fiber map.  Returns nullopt —
/// after reporting and counting the drop — when the whole map must go;
/// otherwise a keep-flag per link, with quarantined links reported under
/// their 1-based record index (the "line number" of an in-memory map).
std::optional<std::vector<char>> validate_published(const PublishedMap& pub,
                                                    const std::string& source,
                                                    bool need_geometry, std::size_t num_cities,
                                                    std::size_t num_isps, StepReport& report,
                                                    DiagnosticSink& sink) {
  if (pub.isp == isp::kNoIsp || pub.isp >= num_isps) {
    sink.report(Severity::Error, source, 0,
                "published map names no known ISP (id " + std::to_string(pub.isp) +
                    "); ISP dropped");
    ++report.isps_dropped;
    return std::nullopt;
  }
  std::vector<char> keep(pub.links.size(), 1);
  for (std::size_t i = 0; i < pub.links.size(); ++i) {
    const auto& link = pub.links[i];
    std::string why;
    if (link.a >= num_cities || link.b >= num_cities) {
      why = "endpoint city out of range";
    } else if (link.a == link.b) {
      why = "endpoints must differ";
    } else if (need_geometry &&
               (!link.geometry.has_value() || link.geometry->points().size() < 2)) {
      why = "geocoded link missing geometry";
    }
    if (!why.empty()) {
      sink.report(Severity::Error, source, i + 1, "link quarantined: " + why);
      keep[i] = 0;
      ++report.records_quarantined;
    }
  }
  return keep;
}

std::string step_source(const char* step, const PublishedMap& pub) {
  return std::string(step) + "/" +
         (pub.isp_name.empty() ? "isp#" + std::to_string(pub.isp) : pub.isp_name);
}

}  // namespace

void MapBuilder::step1_initial_map(FiberMap& map, const std::vector<PublishedMap>& published,
                                   StepReport& report) const {
  DiagnosticSink strict(ParsePolicy::Strict);
  step1_initial_map(map, published, report, strict);
}

void MapBuilder::step1_initial_map(FiberMap& map, const std::vector<PublishedMap>& published,
                                   StepReport& report, DiagnosticSink& sink) const {
  for (const PublishedMap& pub : published) {
    if (!pub.geocoded) continue;
    const std::string source = step_source("step1", pub);
    const auto keep = validate_published(pub, source, /*need_geometry=*/true, cities_.size(),
                                         profiles_.size(), report, sink);
    if (!keep.has_value()) continue;
    try {
      for (std::size_t i = 0; i < pub.links.size(); ++i) {
        if (!(*keep)[i]) continue;
        const auto& link = pub.links[i];
        auto corridors = snap_geometry(link.a, link.b, *link.geometry);
        if (corridors.empty()) {
          // Published geometry too noisy/incomplete: fall back to the ROW
          // shortest path, which is the best guess absent other evidence.
          ++report.snap_fallbacks;
          corridors = row_.shortest_path(link.a, link.b).corridors;
          if (corridors.empty()) continue;
        }
        std::vector<ConduitId> conduit_ids;
        conduit_ids.reserve(corridors.size());
        for (CorridorId cid : corridors) {
          const bool fresh = !map.conduit_for_corridor(cid).has_value();
          const ConduitId conduit =
              map.ensure_conduit(row_.corridor(cid), Provenance::GeocodedMap);
          if (fresh) ++report.conduits_added;
          conduit_ids.push_back(conduit);
        }
        map.add_link(pub.isp, link.a, link.b, conduit_ids, /*geocoded=*/true);
        ++report.links_added;
      }
    } catch (const ParseError&) {
      throw;  // strict-sink fail-fast from a nested boundary
    } catch (const std::exception& e) {
      // Unexpected failure mid-ingest (an IT_CHECK tripping on pathological
      // geometry, say): isolate the fault to this ISP.  Links of this ISP
      // ingested before the throw remain — the residue is harmless map
      // content, not corruption — but the ISP is counted dropped.
      sink.report(Severity::Error, source, 0,
                  std::string("ISP dropped: ingest failed: ") + e.what());
      ++report.isps_dropped;
    }
  }
}

void MapBuilder::step2_check_map(FiberMap& map, StepReport& report) const {
  // For every conduit currently in the map, ask the records what they know
  // about the city pair, seeding the query with a known tenant.
  for (const Conduit& conduit : map.conduits()) {
    const IspId hint = conduit.tenants.empty() ? isp::kNoIsp : conduit.tenants.front();
    const auto mode = row_.corridor(conduit.corridor).mode;
    const auto evidence = inference_.infer(conduit.a, conduit.b, hint, mode, params_.inference);
    const auto accepted = inference_.accepted_tenants(evidence, params_.inference);
    if (evidence.documents_considered > 0) {
      if (!conduit.validated) ++report.conduits_validated;
      map.mark_validated(conduit.id);
    }
    for (IspId isp_id : accepted) {
      if (!std::binary_search(conduit.tenants.begin(), conduit.tenants.end(), isp_id)) {
        map.add_tenant(conduit.id, isp_id);
        ++report.tenants_inferred;
      }
    }
  }
}

void MapBuilder::step3_augment(FiberMap& map, const std::vector<PublishedMap>& published,
                               StepReport& report) const {
  DiagnosticSink strict(ParsePolicy::Strict);
  step3_augment(map, published, report, strict);
}

void MapBuilder::step3_augment(FiberMap& map, const std::vector<PublishedMap>& published,
                               StepReport& report, DiagnosticSink& sink) const {
  for (const PublishedMap& pub : published) {
    if (pub.geocoded) continue;
    const std::string source = step_source("step3", pub);
    const auto keep = validate_published(pub, source, /*need_geometry=*/false, cities_.size(),
                                         profiles_.size(), report, sink);
    if (!keep.has_value()) continue;
    try {
      for (std::size_t i = 0; i < pub.links.size(); ++i) {
        if (!(*keep)[i]) continue;
        const auto& link = pub.links[i];
        // Tentative alignment: shortest ROW path, discounted through
        // corridors already known to hold conduit.  This reads the map as
        // earlier links commit, so ingest stays strictly sequential —
        // validation above is what keeps quarantining from perturbing it.
        const auto path = row_.shortest_path(link.a, link.b, [&](const Corridor& c) {
          const bool known = map.conduit_for_corridor(c.id).has_value();
          return c.length_km * (known ? params_.known_conduit_discount : 1.0);
        });
        if (path.empty()) continue;
        std::vector<ConduitId> conduit_ids;
        for (CorridorId cid : path.corridors) {
          const bool fresh = !map.conduit_for_corridor(cid).has_value();
          const ConduitId conduit =
              map.ensure_conduit(row_.corridor(cid), Provenance::RowAlignment);
          if (fresh) ++report.conduits_added;
          conduit_ids.push_back(conduit);
        }
        map.add_link(pub.isp, link.a, link.b, conduit_ids, /*geocoded=*/false);
        ++report.links_added;
      }
    } catch (const ParseError&) {
      throw;  // strict-sink fail-fast from a nested boundary
    } catch (const std::exception& e) {
      sink.report(Severity::Error, source, 0,
                  std::string("ISP dropped: ingest failed: ") + e.what());
      ++report.isps_dropped;
    }
  }
}

void MapBuilder::step4_validate(FiberMap& map, StepReport& report) const {
  // Examine every non-geocoded link: gather per-conduit evidence for its
  // ISP; if most of its conduits lack support, re-route through corridors
  // where the records *do* place this ISP.
  //
  // Cache evidence per (corridor, isp) — multiple links can share
  // corridors, and evidence is also consulted for *dark* corridors during
  // re-routing (the records may place an ISP on a ROW no map mentioned).
  std::unordered_map<std::uint64_t, bool> supported_cache;

  auto isp_supported_on_corridor = [&](CorridorId corridor_id, IspId isp_id) {
    const std::uint64_t key = (static_cast<std::uint64_t>(corridor_id) << 32) | isp_id;
    const auto it = supported_cache.find(key);
    if (it != supported_cache.end()) return it->second;
    const Corridor& corridor = row_.corridor(corridor_id);
    const auto evidence =
        inference_.infer(corridor.a, corridor.b, isp_id, corridor.mode, params_.inference);
    const auto accepted = inference_.accepted_tenants(evidence, params_.inference);
    const bool ok = std::binary_search(accepted.begin(), accepted.end(), isp_id);
    if (evidence.documents_considered > 0) {
      if (const auto existing = map.conduit_for_corridor(corridor_id)) {
        map.mark_validated(*existing);
      }
    }
    supported_cache.emplace(key, ok);
    return ok;
  };
  auto isp_supported_on = [&](const Conduit& conduit, IspId isp_id) {
    return isp_supported_on_corridor(conduit.corridor, isp_id);
  };

  const auto link_count = map.links().size();
  for (LinkId lid = 0; lid < link_count; ++lid) {
    const Link link = map.link(lid);  // copy: map mutates below
    if (link.geocoded) continue;
    std::size_t supported = 0;
    for (ConduitId cid : link.conduits) {
      if (isp_supported_on(map.conduit(cid), link.isp)) ++supported;
    }
    const double frac =
        static_cast<double>(supported) / static_cast<double>(link.conduits.size());
    if (frac >= params_.correction_threshold) {
      for (ConduitId cid : link.conduits) {
        if (isp_supported_on(map.conduit(cid), link.isp)) {
          if (!map.conduit(cid).validated) ++report.conduits_validated;
          map.mark_validated(cid);
        }
      }
      continue;
    }
    // Correction: re-route preferring corridors with document support for
    // this ISP, then known conduits, then dark corridors.
    const auto better = row_.shortest_path(link.a, link.b, [&](const Corridor& c) {
      double factor = 1.0;
      if (map.conduit_for_corridor(c.id)) factor = params_.known_conduit_discount;
      if (isp_supported_on_corridor(c.id, link.isp)) factor = params_.evidence_discount;
      return c.length_km * factor;
    });
    if (better.empty()) continue;
    std::vector<CorridorId> old_corridors;
    old_corridors.reserve(link.conduits.size());
    for (ConduitId cid : link.conduits) old_corridors.push_back(map.conduit(cid).corridor);
    if (better.corridors == old_corridors) continue;  // correction is a no-op
    // Accept the correction only when the new placement genuinely has
    // better document support than the tentative one; otherwise absence of
    // paper trail alone would be treated as contradiction.
    std::size_t new_supported = 0;
    for (CorridorId cid : better.corridors) {
      if (isp_supported_on_corridor(cid, link.isp)) ++new_supported;
    }
    const double new_frac =
        static_cast<double>(new_supported) / static_cast<double>(better.corridors.size());
    if (new_frac <= frac + 1e-9) continue;
    // Replace the link's conduit sequence in place.  (The superseded
    // tentative tenancy is *not* withdrawn from untouched conduits —
    // matching the paper, which errs on the side of keeping evidence of
    // presence; fidelity metrics penalize any resulting false tenancy.)
    std::vector<ConduitId> conduit_ids;
    for (CorridorId cid : better.corridors) {
      conduit_ids.push_back(map.ensure_conduit(row_.corridor(cid), Provenance::PublicRecords));
    }
    map.replace_link_conduits(lid, conduit_ids);
    ++report.links_rerouted;
  }
}

PipelineResult MapBuilder::build(const std::vector<PublishedMap>& published) {
  DiagnosticSink strict(ParsePolicy::Strict);
  return build(published, strict);
}

PipelineResult MapBuilder::build(const std::vector<PublishedMap>& published,
                                 DiagnosticSink& sink) {
  PipelineResult result{FiberMap(profiles_.size()), {}, {}, {}, {}};
  step1_initial_map(result.map, published, result.step1, sink);
  step2_check_map(result.map, result.step2);
  step3_augment(result.map, published, result.step3, sink);
  step4_validate(result.map, result.step4);
  return result;
}

}  // namespace intertubes::core
