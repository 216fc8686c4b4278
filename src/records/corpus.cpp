#include "records/corpus.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace intertubes::records {

using isp::GroundTruth;
using isp::IspId;
using transport::CityDatabase;
using transport::Corridor;
using transport::CorridorId;
using transport::TransportMode;

namespace {

std::string mode_phrase(TransportMode m, Rng& rng) {
  switch (m) {
    case TransportMode::Road:
      return rng.chance(0.5) ? "the interstate highway right-of-way" : "the state highway corridor";
    case TransportMode::Rail:
      return rng.chance(0.5) ? "the railroad right-of-way" : "land adjacent to the railway corridor";
    case TransportMode::Pipeline:
      return rng.chance(0.5) ? "the refined-products pipeline easement"
                             : "the natural gas pipeline right-of-way";
    case TransportMode::Submarine:
      return rng.chance(0.5) ? "the submarine cable route between landing stations"
                             : "the undersea cable corridor";
  }
  return "the right-of-way";
}

std::string city_phrase(const CityDatabase& cities, transport::CityId id) {
  const auto& c = cities.city(id);
  return c.name + " " + c.state;
}

/// Render one document about a corridor naming the given ISPs.  All facts
/// the extractor may rely on are spelled out in the text itself.
Document make_document(DocId id, DocType type, const CityDatabase& cities, const Corridor& corridor,
                       const std::vector<std::string>& isp_names, Rng& rng) {
  const std::string a = city_phrase(cities, corridor.a);
  const std::string b = city_phrase(cities, corridor.b);
  const std::string row = mode_phrase(corridor.mode, rng);
  const int miles = static_cast<int>(std::lround(corridor.length_km * 0.621371));
  const std::string isps = join(isp_names, ", ");

  Document doc;
  doc.id = id;
  doc.type = type;
  std::string body;
  switch (type) {
    case DocType::IruAgreement:
      doc.title = "Indefeasible right of use agreement, " + a + " to " + b;
      body = "This indefeasible right of use agreement conveys fiber optic strands along " + row +
             " from " + a + " to " + b + ", a route of approximately " +
             std::to_string(miles) + " miles. The parties to the agreement are " + isps +
             ". The grantee shall obtain access to the conduit and associated regeneration " +
             "facilities for the term of the agreement.";
      break;
    case DocType::AgencyFiling:
      doc.title = "Public utilities filing regarding conduit from " + a + " to " + b;
      body = "Filing before the commission concerning the fiber optic conduit installed along " +
             row + " between " + a + " and " + b + ". The record shows that fiber optic cables of " +
             isps + " were pulled through portions of the conduit purchased or leased by those " +
             "carriers. The conduit spans " + std::to_string(miles) + " miles.";
      break;
    case DocType::FranchiseAgreement:
      doc.title = "Franchise agreement, " + a;
      body = std::string("Franchise agreement between the county and the cable operator. Exhibit C notes ") +
             "existing telecommunications facilities of " + isps + " running along " + row +
             " from " + a + " toward " + b + " within the public right-of-way.";
      break;
    case DocType::EnvironmentalImpact:
      doc.title = "Environmental impact statement, " + a + " to " + b + " corridor";
      body = "Chapter 4, utilities section. The affected corridor along " + row + " between " + a +
             " and " + b + " contains buried fiber optic infrastructure belonging to " + isps +
             ". Construction activities shall avoid disturbance of the existing conduit bank.";
      break;
    case DocType::PressRelease:
      doc.title = "Network expansion announcement";
      body = "The company announced completion of a long-haul fiber route from " + a + " to " + b +
             " of roughly " + std::to_string(miles) + " miles. The build makes use of existing " +
             "conduit along " + row + " shared with " + isps + ".";
      break;
    case DocType::Settlement:
      doc.title = "Class action settlement, right-of-way between " + a + " and " + b;
      body = "Notice of class action settlement involving land next to or under " + row +
             " between " + a + " and " + b + " where " + isps +
             " have installed telecommunications facilities such as fiber optic cables.";
      break;
    case DocType::ProjectPlan:
      doc.title = "Design services project document, " + a;
      body = std::string("Project document for design services. Page 4, utilities section, demonstrates the ") +
             "presence of infrastructure of " + isps + " along " + row + " from " + a + " to " + b +
             ". Potholing is required at crossings.";
      break;
    case DocType::LeaseAgreement:
      doc.title = "Conduit lease agreement, " + a + " to " + b;
      body = "Lease agreement under which the lessee obtains dark fiber from " + a + " to " + b +
             " within the existing conduit along " + row + ". Parties: " + isps +
             ". Term of twenty years with renewal options.";
      break;
  }
  doc.text = std::move(body);
  return doc;
}

DocType pick_doc_type(Rng& rng, bool multi_tenant) {
  // Multi-tenant conduits tend to surface through IRUs, settlements and
  // agency filings; single-tenant through press releases and leases.
  if (multi_tenant) {
    static constexpr DocType kTypes[] = {DocType::IruAgreement,   DocType::AgencyFiling,
                                         DocType::Settlement,     DocType::EnvironmentalImpact,
                                         DocType::FranchiseAgreement, DocType::ProjectPlan};
    return kTypes[rng.next_below(std::size(kTypes))];
  }
  static constexpr DocType kTypes[] = {DocType::PressRelease, DocType::LeaseAgreement,
                                       DocType::ProjectPlan, DocType::EnvironmentalImpact};
  return kTypes[rng.next_below(std::size(kTypes))];
}

}  // namespace

Corpus generate_corpus(const CityDatabase& cities, const transport::RightOfWayRegistry& row,
                       const GroundTruth& truth, const CorpusParams& params) {
  Rng rng(mix64(params.seed ^ 0xd0c5ULL));
  Corpus corpus;

  const auto& profiles = truth.profiles();
  auto isp_name = [&](IspId id) { return profiles[id].name; };

  // Deterministic per-state publication propensity (§2.2's state-by-state
  // ROW law variance), log-uniform around 1.
  auto state_factor = [&params](const std::string& state) {
    if (params.state_coverage_variance <= 0.0) return 1.0;
    std::uint64_t h = 0x5747ULL;
    for (char ch : state) h = mix64(h ^ static_cast<std::uint64_t>(ch));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
    return std::exp(params.state_coverage_variance * (2.0 * u - 1.0));
  };

  for (const Corridor& corridor : row.corridors()) {
    const auto& tenants = truth.tenants_by_corridor()[corridor.id];
    if (tenants.empty()) continue;

    // Poisson-ish document count: expected docs_per_tenancy per tenant,
    // scaled by how forthcoming the endpoint states' agencies are.
    const double coverage = (state_factor(cities.city(corridor.a).state) +
                             state_factor(cities.city(corridor.b).state)) /
                            2.0;
    const double expectation =
        params.docs_per_tenancy * coverage * static_cast<double>(tenants.size());
    std::size_t count = 0;
    double budget = expectation;
    while (budget >= 1.0) {
      ++count;
      budget -= 1.0;
    }
    if (rng.chance(budget)) ++count;
    count = std::max(count, params.min_docs_floor);

    for (std::size_t d = 0; d < count; ++d) {
      // Anchor tenant: every document is *about* at least one real tenant.
      const IspId anchor = tenants[rng.next_below(tenants.size())];
      std::vector<std::string> names{isp_name(anchor)};
      for (IspId t : tenants) {
        if (t != anchor && rng.chance(params.cotenant_mention_prob)) names.push_back(isp_name(t));
      }
      // Spurious mention noise.
      if (rng.chance(params.false_mention_prob)) {
        const IspId bogus = static_cast<IspId>(rng.next_below(profiles.size()));
        if (std::find(tenants.begin(), tenants.end(), bogus) == tenants.end()) {
          names.push_back(isp_name(bogus));
        }
      }
      const bool multi = names.size() > 1;
      const auto id = static_cast<DocId>(corpus.documents.size());
      corpus.documents.push_back(
          make_document(id, pick_doc_type(rng, multi), cities, corridor, names, rng));
      corpus.truth_corridor.push_back(corridor.id);
    }
  }

  // Phantom documents about unlit corridors: proposals and studies that
  // never turned into glass.  These exercise the pipeline's rejection path.
  std::vector<CorridorId> unlit;
  for (const Corridor& corridor : row.corridors()) {
    if (truth.tenants_by_corridor()[corridor.id].empty()) unlit.push_back(corridor.id);
  }
  const auto phantom_count = static_cast<std::size_t>(
      params.phantom_docs_per_100 * static_cast<double>(unlit.size()) / 100.0);
  for (std::size_t i = 0; i < phantom_count && !unlit.empty(); ++i) {
    const CorridorId cid = unlit[rng.next_below(unlit.size())];
    const IspId bogus = static_cast<IspId>(rng.next_below(profiles.size()));
    std::vector<std::string> names{isp_name(bogus)};
    const auto id = static_cast<DocId>(corpus.documents.size());
    Document doc = make_document(id, DocType::ProjectPlan, cities, row.corridor(cid), names, rng);
    doc.title = "Feasibility study: " + doc.title;
    doc.text = "Feasibility study for a proposed build. " + doc.text +
               " No construction has commenced as of the date of this study.";
    corpus.documents.push_back(std::move(doc));
    corpus.truth_corridor.push_back(transport::kNoCorridor);
  }

  return corpus;
}

namespace {

std::string escape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(ch);
    }
  }
  return out;
}

std::optional<std::string> unescape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    if (++i >= s.size()) return std::nullopt;
    switch (s[i]) {
      case '\\': out.push_back('\\'); break;
      case 't': out.push_back('\t'); break;
      case 'n': out.push_back('\n'); break;
      default: return std::nullopt;
    }
  }
  return out;
}

}  // namespace

std::string serialize_corpus(const Corpus& corpus) {
  std::string out = "# InterTubes public-records corpus\n";
  out += "#docs\tid\ttype\tcorridor\ttitle\ttext\n";
  for (std::size_t i = 0; i < corpus.documents.size(); ++i) {
    const Document& doc = corpus.documents[i];
    const CorridorId corridor =
        i < corpus.truth_corridor.size() ? corpus.truth_corridor[i] : transport::kNoCorridor;
    out += "doc\t" + std::to_string(doc.id) + "\t" + std::string(doc_type_name(doc.type)) + "\t" +
           (corridor == transport::kNoCorridor ? std::string("-") : std::to_string(corridor)) +
           "\t" + escape_field(doc.title) + "\t" + escape_field(doc.text) + "\n";
  }
  return out;
}

Corpus parse_corpus(const std::string& text, DiagnosticSink& sink, const std::string& source) {
  Corpus corpus;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    std::string line = text.substr(start, end == std::string::npos ? std::string::npos
                                                                   : end - start);
    start = end == std::string::npos ? text.size() + 1 : end + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const auto fail = [&](const std::string& message) {
      sink.report(Severity::Error, source, line_no, message);
    };
    const auto fields = split_fields(line, '\t');
    if (fields[0] != "doc") {
      fail("unknown corpus record type: " + fields[0]);
      continue;
    }
    if (fields.size() != 6) {
      fail("malformed doc line: expected 6 fields, got " + std::to_string(fields.size()));
      continue;
    }
    const auto type = doc_type_from_name(fields[2]);
    if (!type) {
      fail("unknown document type: " + fields[2]);
      continue;
    }
    CorridorId corridor = transport::kNoCorridor;
    if (fields[3] != "-") {
      const auto parsed = parse_uint(fields[3]);
      if (!parsed) {
        fail("malformed truth corridor id: " + fields[3]);
        continue;
      }
      corridor = static_cast<CorridorId>(*parsed);
    }
    const auto title = unescape_field(fields[4]);
    const auto body = unescape_field(fields[5]);
    if (!title || !body || title->empty() || body->empty()) {
      fail("malformed or empty document title/text");
      continue;
    }
    Document doc;
    doc.id = static_cast<DocId>(corpus.documents.size());  // dense re-id after quarantining
    doc.type = *type;
    doc.title = *title;
    doc.text = *body;
    corpus.documents.push_back(std::move(doc));
    corpus.truth_corridor.push_back(corridor);
  }
  return corpus;
}

}  // namespace intertubes::records
