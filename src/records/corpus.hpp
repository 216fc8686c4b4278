// Corpus generation: turn ground truth into the kind of messy public
// paper trail the InterTubes methodology mines.
//
// Coverage is deliberately partial and noisy:
//   * only a fraction of lit conduits leave any paper trail at all;
//   * a document usually names only a subset of a conduit's tenants;
//   * occasionally a document names an ISP that is *not* in the conduit
//     (stale filings, proposals that never happened);
//   * some documents concern proposed-but-never-built corridors.
// The inference machinery has to work despite all of this, exactly like
// the manual searches of the paper.
#pragma once

#include "isp/ground_truth.hpp"
#include "records/document.hpp"
#include "transport/cities.hpp"
#include "transport/row.hpp"
#include "util/diag.hpp"

namespace intertubes::records {

struct CorpusParams {
  std::uint64_t seed = 0x1257;
  /// Expected number of documents per (lit conduit, tenant) pair.  Higher
  /// sharing ⇒ more paper trail, which matches reality (multi-party IRUs,
  /// settlements, joint trenching filings).
  double docs_per_tenancy = 0.9;
  /// Probability that a generated document names any given co-tenant
  /// (documents rarely list everyone in the tube).
  double cotenant_mention_prob = 0.55;
  /// Probability of a spurious ISP mention (noise).
  double false_mention_prob = 0.03;
  /// Number of documents about corridors that carry no fiber (proposals,
  /// feasibility studies) per 100 unlit corridors.
  double phantom_docs_per_100 = 6.0;
  /// Minimum documents per lit conduit regardless of tenancy (0 disables
  /// the floor; the default keeps extreme sparsity while letting most
  /// conduits stay undocumented by chance).
  std::size_t min_docs_floor = 0;
  /// §2.2: "Laws governing rights of way are established on a state-by-
  /// state basis" — some states publish far more than others.  This is
  /// the log-uniform spread of a deterministic per-state multiplier on
  /// docs_per_tenancy (0 = every state publishes alike; 1 ≈ 2.7× between
  /// the most and least forthcoming states).  A conduit's paper trail is
  /// governed by its endpoint states.
  double state_coverage_variance = 0.0;
};

/// A corpus plus the generation bookkeeping needed for *evaluation only*
/// (never consumed by search/inference).
struct Corpus {
  std::vector<Document> documents;
  /// Evaluation metadata: for each document, the corridor it concerns
  /// (kNoCorridor for phantom documents).
  std::vector<transport::CorridorId> truth_corridor;
};

Corpus generate_corpus(const transport::CityDatabase& cities,
                       const transport::RightOfWayRegistry& row, const isp::GroundTruth& truth,
                       const CorpusParams& params = {});

/// Serialize the corpus as a TSV document archive:
///   doc <tab> id <tab> type-name <tab> truth-corridor-or-"-" <tab> title
///       <tab> text
/// Title and text have backslash, tab and newline escaped, so one document
/// is always one line.
std::string serialize_corpus(const Corpus& corpus);

/// Parse a corpus archive, reporting malformed documents into `sink` with
/// their input line number; under the lenient policy they are quarantined
/// and the rest survive.  Document ids are reassigned to be dense (the
/// Corpus invariant id == index must hold after quarantining).
Corpus parse_corpus(const std::string& text, DiagnosticSink& sink,
                    const std::string& source = "<corpus>");

}  // namespace intertubes::records
