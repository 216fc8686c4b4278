// The four-step map construction pipeline of §2.
//
//   Step 1 — ingest geocoded published maps: snap each published link's
//            (noisy) geometry onto right-of-way corridors; each snapped
//            corridor becomes a conduit, and geometric co-location of two
//            ISPs' links in one corridor is conduit sharing.
//   Step 2 — check the initial map against the public-records corpus:
//            validate conduit locations and *infer additional tenants*
//            from documents.
//   Step 3 — ingest POP-only published maps: tentatively align each link
//            along the closest right-of-way, preferring corridors already
//            known to hold conduit (the paper's economics assumption).
//   Step 4 — validate/correct the augmented map with another records pass:
//            re-route tentative placements that the paper trail
//            contradicts, and validate those it supports.
#pragma once

#include "core/fiber_map.hpp"
#include "isp/published_maps.hpp"
#include "records/corpus.hpp"
#include "records/inference.hpp"

namespace intertubes::core {

struct PipelineParams {
  /// Buffer (km) within which published geometry must track a corridor to
  /// snap onto it — generous because published maps carry georeferencing
  /// error.
  double snap_buffer_km = 6.5;
  /// Minimum fraction of a corridor's length that must be covered by the
  /// published geometry's buffer for the corridor to be a snap candidate.
  double snap_coverage = 0.8;
  /// Step-3 alignment: cost multiplier for corridors already holding a
  /// known conduit (vs. 1.0 for dark corridors).
  double known_conduit_discount = 0.45;
  /// Step-4 correction: a tentative link is re-routed when fewer than this
  /// fraction of its conduits find document support.
  double correction_threshold = 0.34;
  /// Step-4 re-route: cost multiplier for corridors where the records pass
  /// found this ISP.
  double evidence_discount = 0.25;
  records::InferenceParams inference;
};

/// Per-step accounting, reported alongside the map.
struct StepReport {
  std::size_t links_added = 0;
  std::size_t conduits_added = 0;
  std::size_t conduits_validated = 0;
  std::size_t tenants_inferred = 0;   ///< tenant entries added by records
  std::size_t links_rerouted = 0;     ///< step 4 corrections
  std::size_t snap_fallbacks = 0;     ///< geometry too noisy, used ROW shortest path
  std::size_t isps_dropped = 0;       ///< whole published maps dropped (fault isolation)
  std::size_t records_quarantined = 0;  ///< individual published links quarantined
};

struct PipelineResult {
  FiberMap map;
  StepReport step1;
  StepReport step2;
  StepReport step3;
  StepReport step4;
};

class MapBuilder {
 public:
  MapBuilder(const transport::CityDatabase& cities, const transport::RightOfWayRegistry& row,
             const std::vector<isp::IspProfile>& profiles, const records::Corpus& corpus,
             PipelineParams params = {});

  // inference_ refers to the sibling member index_; moving or copying the
  // builder would dangle it.  Construction in place (guaranteed elision)
  // still works.
  MapBuilder(const MapBuilder&) = delete;
  MapBuilder& operator=(const MapBuilder&) = delete;

  /// Run all four steps over the published maps (order does not matter;
  /// geocoded maps are consumed by step 1, POP-only maps by step 3).
  ///
  /// The sink overload is fault-isolating: each published map is validated
  /// before any of it is ingested, malformed links are quarantined with a
  /// diagnostic (`records_quarantined`), and an ISP whose map is invalid
  /// wholesale — or whose ingest throws — is dropped (`isps_dropped`)
  /// instead of aborting the build.  Under a strict sink the first defect
  /// still fails fast, naming its location.  The sink-less overload runs
  /// with a strict sink.
  PipelineResult build(const std::vector<isp::PublishedMap>& published);
  PipelineResult build(const std::vector<isp::PublishedMap>& published,
                       DiagnosticSink& sink);

  /// Individual steps, exposed for tests and ablations.  Steps must be
  /// applied in order to a fresh FiberMap.  The ingest steps (1 and 3)
  /// take the diagnostics sink; sink-less overloads run strict.
  void step1_initial_map(FiberMap& map, const std::vector<isp::PublishedMap>& published,
                         StepReport& report) const;
  void step1_initial_map(FiberMap& map, const std::vector<isp::PublishedMap>& published,
                         StepReport& report, DiagnosticSink& sink) const;
  void step2_check_map(FiberMap& map, StepReport& report) const;
  void step3_augment(FiberMap& map, const std::vector<isp::PublishedMap>& published,
                     StepReport& report) const;
  void step3_augment(FiberMap& map, const std::vector<isp::PublishedMap>& published,
                     StepReport& report, DiagnosticSink& sink) const;
  void step4_validate(FiberMap& map, StepReport& report) const;

  /// Snap one published geometry onto a corridor path from a to b.
  /// Returns corridor ids in path order; empty if no path through snap
  /// candidates exists (caller falls back to the ROW shortest path).
  std::vector<transport::CorridorId> snap_geometry(transport::CityId a, transport::CityId b,
                                                   const geo::Polyline& geometry) const;

 private:
  const transport::CityDatabase& cities_;
  const transport::RightOfWayRegistry& row_;
  const std::vector<isp::IspProfile>& profiles_;
  const records::Corpus& corpus_;
  PipelineParams params_;
  records::SearchIndex index_;
  records::SharingInference inference_;
};

}  // namespace intertubes::core
