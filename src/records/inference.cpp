#include "records/inference.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace intertubes::records {

using isp::IspId;
using transport::CityId;

namespace {

std::string seq_key(const std::vector<std::string>& tokens, std::size_t begin, std::size_t len) {
  std::string key;
  for (std::size_t i = 0; i < len; ++i) {
    if (i) key += ' ';
    key += tokens[begin + i];
  }
  return key;
}

}  // namespace

EntityExtractor::EntityExtractor(const transport::CityDatabase& cities,
                                 const std::vector<isp::IspProfile>& profiles) {
  // City entries are "<name tokens> <state>" — the corpus convention.
  for (CityId id = 0; id < cities.size(); ++id) {
    const auto& c = cities.city(id);
    auto tokens = tokenize_words(c.name + " " + c.state);
    SeqEntry entry;
    entry.length = tokens.size();
    entry.city = id;
    sequences_[join(tokens, " ")] = entry;
    max_seq_len_ = std::max(max_seq_len_, tokens.size());
  }
  for (IspId id = 0; id < profiles.size(); ++id) {
    auto tokens = tokenize_words(profiles[id].name);
    IT_CHECK(!tokens.empty());
    SeqEntry entry;
    entry.length = tokens.size();
    entry.isp = id;
    sequences_[join(tokens, " ")] = entry;
    max_seq_len_ = std::max(max_seq_len_, tokens.size());
  }
}

ExtractedEntities EntityExtractor::extract(const Document& doc) const {
  ExtractedEntities out;
  const std::string full = doc.title + " " + doc.text;
  const auto tokens = tokenize_words(full);

  for (std::size_t i = 0; i < tokens.size();) {
    std::size_t consumed = 1;
    const std::size_t max_len = std::min(max_seq_len_, tokens.size() - i);
    // Longest match wins: "salt lake city ut" before "salt".
    for (std::size_t len = max_len; len >= 1; --len) {
      const auto it = sequences_.find(seq_key(tokens, i, len));
      if (it == sequences_.end()) continue;
      const SeqEntry& entry = it->second;
      if (entry.city != transport::kNoCity) out.cities.push_back(entry.city);
      if (entry.isp != isp::kNoIsp) out.isps.push_back(entry.isp);
      consumed = len;
      break;
    }
    i += consumed;
  }

  std::sort(out.cities.begin(), out.cities.end());
  out.cities.erase(std::unique(out.cities.begin(), out.cities.end()), out.cities.end());
  std::sort(out.isps.begin(), out.isps.end());
  out.isps.erase(std::unique(out.isps.begin(), out.isps.end()), out.isps.end());

  const std::string lower = to_lower(full);
  out.negative = contains(lower, "feasibility study") ||
                 contains(lower, "no construction has commenced");
  out.strong = contains(lower, "indefeasible right of use") ||
               contains(lower, "filing before the commission") ||
               contains(lower, "class action settlement");
  if (contains(lower, "railroad") || contains(lower, "railway")) {
    out.row_mode = transport::TransportMode::Rail;
  } else if (contains(lower, "pipeline")) {
    out.row_mode = transport::TransportMode::Pipeline;
  } else if (contains(lower, "submarine cable") || contains(lower, "undersea cable") ||
             contains(lower, "landing station")) {
    out.row_mode = transport::TransportMode::Submarine;
  } else if (contains(lower, "highway") || contains(lower, "interstate")) {
    out.row_mode = transport::TransportMode::Road;
  }
  return out;
}

SharingInference::SharingInference(const transport::CityDatabase& cities,
                                   const std::vector<Document>& docs, const SearchIndex& index,
                                   const EntityExtractor& extractor,
                                   const std::vector<isp::IspProfile>& profiles)
    : cities_(cities), index_(index), profiles_(profiles) {
  entities_.reserve(docs.size());
  for (const Document& doc : docs) {
    IT_CHECK_MSG(doc.id == entities_.size(), "documents must be numbered densely");
    entities_.push_back(extractor.extract(doc));
  }
}

ConduitEvidence SharingInference::infer(CityId a, CityId b, IspId hint_isp,
                                        std::optional<transport::TransportMode> row_mode,
                                        const InferenceParams& params) const {
  ConduitEvidence evidence;
  evidence.a = a;
  evidence.b = b;

  const auto& ca = cities_.city(a);
  const auto& cb = cities_.city(b);
  // The canonical search the paper describes, e.g.
  // "los angeles ca to san francisco ca fiber iru at&t".
  std::string query = ca.name + " " + ca.state + " to " + cb.name + " " + cb.state +
                      " fiber optic conduit right of way iru";
  if (hint_isp != isp::kNoIsp) query += " " + profiles_[hint_isp].name;

  const auto hits = index_.query(query, params.min_match, params.max_docs_per_query);

  std::unordered_map<IspId, TenantEvidence> per_isp;
  for (const auto& hit : hits) {
    const ExtractedEntities& entities = entities_[hit.doc];
    // The analyst only counts documents that clearly concern this city
    // pair and that describe installed (not proposed) fiber.
    const bool mentions_both =
        std::binary_search(entities.cities.begin(), entities.cities.end(), a) &&
        std::binary_search(entities.cities.begin(), entities.cities.end(), b);
    if (!mentions_both || entities.negative) continue;
    // Rule ROWs out: a document that clearly describes a different
    // right-of-way type concerns the *other* conduit between these cities.
    if (row_mode && entities.row_mode && *entities.row_mode != *row_mode) continue;
    ++evidence.documents_considered;
    for (IspId isp_id : entities.isps) {
      auto& te = per_isp[isp_id];
      te.isp = isp_id;
      ++te.doc_count;
      if (entities.strong) ++te.strong_doc_count;
      te.score += hit.score;
      te.docs.push_back(hit.doc);
    }
  }

  evidence.tenants.reserve(per_isp.size());
  for (auto& [isp_id, te] : per_isp) evidence.tenants.push_back(std::move(te));
  std::sort(evidence.tenants.begin(), evidence.tenants.end(),
            [](const TenantEvidence& x, const TenantEvidence& y) {
              if (x.score != y.score) return x.score > y.score;
              return x.isp < y.isp;
            });
  return evidence;
}

std::vector<IspId> SharingInference::accepted_tenants(const ConduitEvidence& evidence,
                                                      const InferenceParams& params) const {
  std::vector<IspId> accepted;
  for (const auto& te : evidence.tenants) {
    if (te.doc_count >= params.docs_required || te.strong_doc_count >= 1) {
      accepted.push_back(te.isp);
    }
  }
  std::sort(accepted.begin(), accepted.end());
  return accepted;
}

}  // namespace intertubes::records
