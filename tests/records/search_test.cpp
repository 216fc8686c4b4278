#include "records/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "core/scenario.hpp"
#include "records/inference.hpp"
#include "test_support.hpp"
#include "util/strings.hpp"

namespace intertubes::records {
namespace {

std::vector<Document> tiny_corpus() {
  std::vector<Document> docs;
  auto add = [&docs](std::string title, std::string text) {
    Document d;
    d.id = static_cast<DocId>(docs.size());
    d.type = DocType::PressRelease;
    d.title = std::move(title);
    d.text = std::move(text);
    docs.push_back(std::move(d));
  };
  add("IRU agreement Denver to Salt Lake City",
      "Indefeasible right of use agreement between Sprint and Level 3 covering fiber along the "
      "railroad right-of-way from Denver CO to Salt Lake City UT.");
  add("Press release",
      "The company announced a new route from Dallas TX to Houston TX along the interstate "
      "highway right-of-way.");
  add("Unrelated filing", "A zoning variance for a parking structure in downtown Omaha NE.");
  add("Fiber lease Chicago",
      "Lease agreement for dark fiber from Chicago IL to Milwaukee WI within existing conduit. "
      "Parties: Comcast, AT&T.");
  return docs;
}

TEST(SearchIndex, BasicCountsAndVocabulary) {
  const auto docs = tiny_corpus();
  const SearchIndex index(docs);
  EXPECT_EQ(index.num_documents(), docs.size());
  EXPECT_GT(index.vocabulary_size(), 20u);
}

TEST(SearchIndex, FindsRelevantDocument) {
  const SearchIndex index(tiny_corpus());
  const auto hits = index.query("denver salt lake city fiber iru sprint", 0.5, 10);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front().doc, 0u);
}

TEST(SearchIndex, IrrelevantQueryReturnsNothing) {
  const SearchIndex index(tiny_corpus());
  const auto hits = index.query("undersea cable landing station hawaii", 0.5, 10);
  EXPECT_TRUE(hits.empty());
}

TEST(SearchIndex, MinMatchGates) {
  const SearchIndex index(tiny_corpus());
  // "chicago" matches doc 3 but is only 1 of 4 distinct query terms.
  const auto strict = index.query("chicago undersea landing hawaii", 0.6, 10);
  EXPECT_TRUE(strict.empty());
  const auto loose = index.query("chicago undersea landing hawaii", 0.25, 10);
  ASSERT_FALSE(loose.empty());
  EXPECT_EQ(loose.front().doc, 3u);
  EXPECT_NEAR(loose.front().match_fraction, 0.25, 1e-9);
}

TEST(SearchIndex, LimitRespected) {
  const SearchIndex index(tiny_corpus());
  const auto hits = index.query("fiber right of way", 0.1, 2);
  EXPECT_LE(hits.size(), 2u);
}

TEST(SearchIndex, ScoresDescending) {
  const SearchIndex index(tiny_corpus());
  const auto hits = index.query("fiber conduit right of way agreement", 0.1, 10);
  for (std::size_t i = 0; i + 1 < hits.size(); ++i) {
    EXPECT_GE(hits[i].score, hits[i + 1].score);
  }
}

TEST(SearchIndex, EmptyQueryReturnsNothing) {
  const SearchIndex index(tiny_corpus());
  EXPECT_TRUE(index.query("", 0.5, 10).empty());
  EXPECT_TRUE(index.query("...!!!", 0.5, 10).empty());
}

TEST(SearchIndex, DocFrequency) {
  const SearchIndex index(tiny_corpus());
  EXPECT_EQ(index.doc_frequency("fiber"), 2u);  // docs 0 and 3
  EXPECT_EQ(index.doc_frequency("FIBER"), 2u);  // case-folded
  EXPECT_EQ(index.doc_frequency("denver"), 1u);
  EXPECT_EQ(index.doc_frequency("nonexistentterm"), 0u);
}

TEST(SearchIndex, TitleTermsSearchable) {
  const SearchIndex index(tiny_corpus());
  const auto hits = index.query("zoning variance omaha", 0.6, 10);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front().doc, 2u);
}

TEST(SearchIndex, RareTermsOutweighCommonOnes) {
  // A doc matching the rare term should outrank docs matching only the
  // ubiquitous one.
  std::vector<Document> docs;
  for (int i = 0; i < 20; ++i) {
    Document d;
    d.id = static_cast<DocId>(docs.size());
    d.title = "filler";
    d.text = "fiber fiber fiber conduit";
    docs.push_back(std::move(d));
  }
  Document rare;
  rare.id = static_cast<DocId>(docs.size());
  rare.title = "special";
  rare.text = "fiber xylophone conduit";
  docs.push_back(std::move(rare));
  const SearchIndex index(docs);
  const auto hits = index.query("fiber xylophone", 0.4, 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front().doc, 20u);
}

TEST(SearchIndex, ScalesToScenarioCorpus) {
  const auto& corpus = intertubes::testing::shared_scenario().corpus();
  const SearchIndex index(corpus.documents);
  EXPECT_EQ(index.num_documents(), corpus.documents.size());
  const auto hits = index.query("fiber optic conduit right of way", 0.3, 50);
  EXPECT_FALSE(hits.empty());
}

/// Differential reference: BM25-lite with its own postings and one
/// std::unordered_map score and match count per touched document — the
/// accumulation SearchIndex::query used before its dense arrays.
class MapReferenceIndex {
 public:
  explicit MapReferenceIndex(const std::vector<Document>& docs) {
    doc_lengths_.resize(docs.size(), 0);
    std::unordered_map<std::string, std::uint32_t> tf;
    for (const Document& doc : docs) {
      tf.clear();
      const auto tokens = tokenize_words(doc.title + " " + doc.text);
      doc_lengths_[doc.id] = static_cast<std::uint32_t>(tokens.size());
      for (const auto& tok : tokens) ++tf[tok];
      for (const auto& [term, count] : tf) postings_[term].push_back({doc.id, count});
    }
    double total = 0.0;
    for (auto len : doc_lengths_) total += len;
    avg_doc_length_ = total / static_cast<double>(doc_lengths_.size());
  }

  std::vector<SearchHit> query(std::string_view text, double min_match,
                               std::size_t limit) const {
    auto terms = tokenize_words(text);
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    if (terms.empty()) return {};
    const double n_docs = static_cast<double>(doc_lengths_.size());
    constexpr double k1 = 1.4;
    constexpr double b = 0.6;
    std::unordered_map<DocId, double> scores;
    std::unordered_map<DocId, std::uint32_t> matched_terms;
    for (const auto& term : terms) {
      const auto it = postings_.find(term);
      if (it == postings_.end()) continue;
      const double df = static_cast<double>(it->second.size());
      const double idf = std::log(1.0 + (n_docs - df + 0.5) / (df + 0.5));
      for (const auto& [doc, tf] : it->second) {
        const double len_norm =
            1.0 - b + b * static_cast<double>(doc_lengths_[doc]) / avg_doc_length_;
        const double tf_component =
            static_cast<double>(tf) * (k1 + 1.0) / (static_cast<double>(tf) + k1 * len_norm);
        scores[doc] += idf * tf_component;
        ++matched_terms[doc];
      }
    }
    std::vector<SearchHit> hits;
    const double n_terms = static_cast<double>(terms.size());
    for (const auto& [doc, score] : scores) {
      const double frac = static_cast<double>(matched_terms.at(doc)) / n_terms;
      if (frac + 1e-12 < min_match) continue;
      hits.push_back({doc, score, frac});
    }
    std::sort(hits.begin(), hits.end(), [](const SearchHit& x, const SearchHit& y) {
      if (x.score != y.score) return x.score > y.score;
      return x.doc < y.doc;
    });
    if (hits.size() > limit) hits.resize(limit);
    return hits;
  }

 private:
  std::unordered_map<std::string, std::vector<std::pair<DocId, std::uint32_t>>> postings_;
  std::vector<std::uint32_t> doc_lengths_;
  double avg_doc_length_ = 0.0;
};

void expect_same_hits(const std::vector<SearchHit>& got, const std::vector<SearchHit>& want,
                      const std::string& text) {
  ASSERT_EQ(got.size(), want.size()) << text;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].doc, want[i].doc) << text << " rank " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
              std::bit_cast<std::uint64_t>(want[i].score))
        << text << " rank " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].match_fraction),
              std::bit_cast<std::uint64_t>(want[i].match_fraction))
        << text << " rank " << i;
  }
}

TEST(SearchIndex, DenseAccumulatorMatchesMapReferenceOnCorridorQueries) {
  // Every corridor's records query, as SharingInference composes it, with
  // and without an ISP hint: the hit lists must agree bit for bit, both
  // ungated and unlimited (every touched document's score) and under the
  // pipeline's gate and limit.
  const auto& scenario = intertubes::testing::shared_scenario();
  const auto& docs = scenario.corpus().documents;
  const SearchIndex index(docs);
  const MapReferenceIndex reference(docs);
  const auto& cities = core::Scenario::cities();
  const auto& profiles = scenario.truth().profiles();
  const InferenceParams pipeline;
  constexpr auto kUnlimited = std::numeric_limits<std::size_t>::max();
  std::size_t queries = 0;
  std::size_t gated_hits = 0;
  for (const auto& corridor : scenario.row().corridors()) {
    const auto& ca = cities.city(corridor.a);
    const auto& cb = cities.city(corridor.b);
    const std::string plain = ca.name + " " + ca.state + " to " + cb.name + " " + cb.state +
                              " fiber optic conduit right of way iru";
    const std::string hinted = plain + " " + profiles[corridor.id % profiles.size()].name;
    for (const std::string& text : {plain, hinted}) {
      ++queries;
      const auto all = reference.query(text, 0.0, kUnlimited);
      ASSERT_NO_FATAL_FAILURE(expect_same_hits(index.query(text, 0.0, kUnlimited), all, text));
      // The reference's gated list is its full ranking, filtered and cut.
      std::vector<SearchHit> gated;
      for (const auto& hit : all) {
        if (hit.match_fraction + 1e-12 < pipeline.min_match) continue;
        if (gated.size() == pipeline.max_docs_per_query) break;
        gated.push_back(hit);
      }
      ASSERT_NO_FATAL_FAILURE(expect_same_hits(
          index.query(text, pipeline.min_match, pipeline.max_docs_per_query), gated, text));
      gated_hits += gated.size();
    }
  }
  EXPECT_EQ(queries, 2 * scenario.row().corridors().size());
  EXPECT_GT(gated_hits, queries);
}

}  // namespace
}  // namespace intertubes::records
