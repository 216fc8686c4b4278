#include "records/search.hpp"

#include <algorithm>
#include <cmath>

#include "util/strings.hpp"

namespace intertubes::records {

SearchIndex::SearchIndex(const std::vector<Document>& docs) {
  doc_lengths_.resize(docs.size(), 0);
  std::unordered_map<std::string, std::uint32_t> tf;
  for (const Document& doc : docs) {
    tf.clear();
    const auto tokens = tokenize_words(doc.title + " " + doc.text);
    doc_lengths_[doc.id] = static_cast<std::uint32_t>(tokens.size());
    for (const auto& tok : tokens) ++tf[tok];
    for (const auto& [term, count] : tf) {
      postings_[term].push_back({doc.id, count});
    }
  }
  double total = 0.0;
  for (auto len : doc_lengths_) total += len;
  avg_doc_length_ = doc_lengths_.empty() ? 0.0 : total / static_cast<double>(doc_lengths_.size());
}

std::size_t SearchIndex::doc_frequency(std::string_view term) const {
  const auto it = postings_.find(to_lower(term));
  return it == postings_.end() ? 0 : it->second.size();
}

std::vector<SearchHit> SearchIndex::query(std::string_view text, double min_match,
                                          std::size_t limit) const {
  auto terms = tokenize_words(text);
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  if (terms.empty()) return {};

  const double n_docs = static_cast<double>(doc_lengths_.size());
  // BM25-lite accumulation into dense per-document arrays, remembering
  // which documents were touched.  Each document's score sums its terms in
  // sorted term order, so the result does not depend on the accumulator.
  constexpr double k1 = 1.4;
  constexpr double b = 0.6;
  std::vector<double> scores(doc_lengths_.size(), 0.0);
  std::vector<std::uint32_t> matched_terms(doc_lengths_.size(), 0);
  std::vector<DocId> touched;
  for (const auto& term : terms) {
    const auto it = postings_.find(term);
    if (it == postings_.end()) continue;
    const double df = static_cast<double>(it->second.size());
    const double idf = std::log(1.0 + (n_docs - df + 0.5) / (df + 0.5));
    for (const auto& posting : it->second) {
      const double len_norm =
          1.0 - b + b * static_cast<double>(doc_lengths_[posting.doc]) / avg_doc_length_;
      const double tf_component =
          static_cast<double>(posting.tf) * (k1 + 1.0) /
          (static_cast<double>(posting.tf) + k1 * len_norm);
      if (matched_terms[posting.doc]++ == 0) touched.push_back(posting.doc);
      scores[posting.doc] += idf * tf_component;
    }
  }

  std::vector<SearchHit> hits;
  hits.reserve(touched.size());
  const double n_terms = static_cast<double>(terms.size());
  for (const DocId doc : touched) {
    const double frac = static_cast<double>(matched_terms[doc]) / n_terms;
    if (frac + 1e-12 < min_match) continue;
    hits.push_back({doc, scores[doc], frac});
  }
  // (score desc, doc asc) is a total order: the ranking does not depend on
  // the order the hits were collected in, and ordering only the first
  // `limit` hits keeps exactly the list a full sort would.
  const auto kept = static_cast<std::ptrdiff_t>(std::min(limit, hits.size()));
  std::partial_sort(hits.begin(), hits.begin() + kept, hits.end(),
                    [](const SearchHit& x, const SearchHit& y) {
                      if (x.score != y.score) return x.score > y.score;
                      return x.doc < y.doc;
                    });
  hits.resize(static_cast<std::size_t>(kept));
  return hits;
}

}  // namespace intertubes::records
