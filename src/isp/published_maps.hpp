// Rendering of the artifacts ISPs actually publish, from ground truth.
//
// Step-1 ISPs publish maps with full geocoded link geometry (possibly
// noisy: scanned PDFs, manual georeferencing); step-3 ISPs publish
// POP-level connectivity only ("a simple point with two names").  A small
// fraction of links is missing from any published map — published maps lag
// deployments — which is one of the noise sources the mapping pipeline
// must survive.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "isp/ground_truth.hpp"
#include "util/diag.hpp"

namespace intertubes::isp {

struct PublishedLink {
  transport::CityId a = transport::kNoCity;
  transport::CityId b = transport::kNoCity;
  /// Full route geometry for geocoded maps; nullopt on POP-only maps.
  std::optional<geo::Polyline> geometry;
};

struct PublishedMap {
  IspId isp = kNoIsp;
  std::string isp_name;
  bool geocoded = false;
  std::vector<transport::CityId> nodes;
  std::vector<PublishedLink> links;
};

struct PublishParams {
  std::uint64_t seed = 0x1257;
  /// Probability a deployed link is absent from the published map.
  double omit_link_prob = 0.04;
  /// Std-dev (km) of the per-vertex jitter applied to geocoded geometry,
  /// modelling georeferencing error of scanned maps.
  double coord_noise_km = 2.0;
};

/// Render the published map of one ISP from ground truth.
PublishedMap render_published_map(const GroundTruth& truth,
                                  const transport::RightOfWayRegistry& row, IspId isp,
                                  const PublishParams& params = {});

/// Render all twenty, in profile order.
std::vector<PublishedMap> render_all_published_maps(const GroundTruth& truth,
                                                    const transport::RightOfWayRegistry& row,
                                                    const PublishParams& params = {});

/// Serialize published maps as a TSV archive — the on-disk form of the
/// artifacts the pipeline ingests.  One block per ISP:
///   map  <tab> isp-name <tab> geocoded-flag
///   link <tab> from <tab> to [<tab> lon,lat lon,lat ...]   (geometry on
///                                                            geocoded maps)
std::string serialize_published_maps(const std::vector<PublishedMap>& maps,
                                     const transport::CityDatabase& cities);

/// Parse a published-map archive, reporting defects into `sink` with input
/// line numbers.  A malformed `map` header (unknown ISP, bad flag)
/// quarantines the whole block — its links are skipped without further
/// diagnostics; a malformed `link` line (unknown city, bad geometry)
/// quarantines just that link.  Node lists are rebuilt from the surviving
/// links' endpoints.
std::vector<PublishedMap> parse_published_maps(const std::string& text,
                                               const transport::CityDatabase& cities,
                                               const std::vector<IspProfile>& profiles,
                                               DiagnosticSink& sink,
                                               const std::string& source = "<published-maps>");

}  // namespace intertubes::isp
