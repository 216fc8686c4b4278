// Entity extraction and conduit-sharing inference over the corpus.
//
// This is the automated analogue of what the paper's authors did by hand:
// search for "<city a> to <city b> fiber iru <isp>", read the documents
// that come back, and accept an ISP as a conduit tenant when the paper
// trail is convincing.  Extraction works on document *text only* via a
// gazetteer of city and ISP names; corpus generation metadata is never
// consulted.
#pragma once

#include <vector>

#include "isp/profiles.hpp"
#include "records/search.hpp"
#include "transport/cities.hpp"
#include "transport/network.hpp"

namespace intertubes::records {

struct ExtractedEntities {
  std::vector<transport::CityId> cities;  ///< sorted, unique
  std::vector<isp::IspId> isps;           ///< sorted, unique
  /// True when the document disclaims actual construction (feasibility
  /// studies, proposals) — not evidence of installed fiber.
  bool negative = false;
  /// True for document classes that authoritatively list parties
  /// (IRU agreements, agency filings, settlements).
  bool strong = false;
  /// Right-of-way type the document describes, when its language reveals
  /// one ("railroad right-of-way", "interstate highway", "pipeline
  /// easement") — lets the analyst rule ROWs in or out, as in §2.4.
  std::optional<transport::TransportMode> row_mode;
};

/// Gazetteer-based extractor.  Matching is longest-token-sequence-first;
/// city names must be followed by their state code (the convention of the
/// corpus and of the queries we compose), which disambiguates duplicates
/// such as Portland OR / Portland ME.
class EntityExtractor {
 public:
  EntityExtractor(const transport::CityDatabase& cities,
                  const std::vector<isp::IspProfile>& profiles);

  ExtractedEntities extract(const Document& doc) const;

 private:
  struct SeqEntry {
    std::size_t length;  // token count
    transport::CityId city = transport::kNoCity;
    isp::IspId isp = isp::kNoIsp;
  };
  std::unordered_map<std::string, SeqEntry> sequences_;
  std::size_t max_seq_len_ = 1;
};

/// Evidence accumulated for one candidate tenant of one conduit.
struct TenantEvidence {
  isp::IspId isp = isp::kNoIsp;
  std::size_t doc_count = 0;
  std::size_t strong_doc_count = 0;
  double score = 0.0;
  std::vector<DocId> docs;
};

struct ConduitEvidence {
  transport::CityId a = transport::kNoCity;
  transport::CityId b = transport::kNoCity;
  std::vector<TenantEvidence> tenants;  ///< descending by score
  std::size_t documents_considered = 0;
};

struct InferenceParams {
  /// Minimum query term match fraction for a hit to be read.
  double min_match = 0.55;
  /// Maximum documents read per query (the analyst's patience).
  std::size_t max_docs_per_query = 24;
  /// Acceptance rule: an ISP is a tenant if it has >= docs_required
  /// supporting documents, or >= 1 strong document.
  std::size_t docs_required = 2;
};

/// Runs the search-read-accumulate loop for candidate conduits.
class SharingInference {
 public:
  /// Extracts every document's entities once, here: they depend only on
  /// the document text, and `infer` reads each hit's from this table.
  /// `docs` must be densely numbered (docs[i].id == i), as `index` is.
  SharingInference(const transport::CityDatabase& cities, const std::vector<Document>& docs,
                   const SearchIndex& index, const EntityExtractor& extractor,
                   const std::vector<isp::IspProfile>& profiles);

  /// Gather evidence about the conduit between cities a and b.  `hint_isp`
  /// (optional) seeds the query with a known tenant's name, which is how
  /// the paper chains from known maps to unknown tenants.  When
  /// `row_mode` is given, documents whose language describes a different
  /// right-of-way type are ruled out (there can be a road conduit *and* a
  /// rail conduit between the same cities, with different tenants).
  ConduitEvidence infer(transport::CityId a, transport::CityId b,
                        isp::IspId hint_isp = isp::kNoIsp,
                        std::optional<transport::TransportMode> row_mode = std::nullopt,
                        const InferenceParams& params = {}) const;

  /// Apply the acceptance rule to evidence.
  std::vector<isp::IspId> accepted_tenants(const ConduitEvidence& evidence,
                                           const InferenceParams& params = {}) const;

 private:
  const transport::CityDatabase& cities_;
  const SearchIndex& index_;
  const std::vector<isp::IspProfile>& profiles_;
  std::vector<ExtractedEntities> entities_;  ///< by DocId
};

}  // namespace intertubes::records
