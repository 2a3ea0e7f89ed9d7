#include "core/query.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <span>

#include "index/tokenizer.h"
#include "util/string_util.h"

namespace banks {

namespace {

// Recognises "approx(<number>)" (case-insensitive); fills the term.
bool ParseApprox(const std::string& raw, QueryTerm* term) {
  std::string lower = ToLower(raw);
  if (!StartsWith(lower, "approx(") || lower.back() != ')') return false;
  std::string number = raw.substr(7, raw.size() - 8);
  if (number.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(number.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  term->kind = QueryTerm::Kind::kNumericApprox;
  term->numeric_value = v;
  term->keyword = "approx" + NormalizeKeyword(number);
  return true;
}

}  // namespace

ParsedQuery ParseQuery(const std::string& text) {
  ParsedQuery query;
  // Whitespace-split first; each token may be "attr:kw", plain "kw", or the
  // approx(<n>) form (optionally attribute-restricted).
  std::string cur;
  auto flush = [&]() {
    if (cur.empty()) return;
    QueryTerm term;
    std::string body = cur;
    size_t colon = cur.find(':');
    if (colon != std::string::npos && colon > 0 && colon + 1 < cur.size()) {
      std::string attr = NormalizeKeyword(cur.substr(0, colon));
      // "approx(...)" contains no colon, so this split is unambiguous.
      if (!attr.empty()) {
        term.attribute = attr;
        body = cur.substr(colon + 1);
      }
    }
    if (!ParseApprox(body, &term)) {
      term.keyword = NormalizeKeyword(body);
      if (term.keyword.empty()) {
        cur.clear();
        return;
      }
    }
    query.terms.push_back(std::move(term));
    cur.clear();
  };
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else {
      cur.push_back(c);
    }
  }
  flush();
  return query;
}

bool KeywordResolver::TupleColumnContains(Rid rid,
                                          const std::string& attribute,
                                          const std::string& keyword) const {
  const Table* t = db_->table(rid.table_id);
  const Tuple* tuple = db_->Get(rid);
  if (t == nullptr || tuple == nullptr) return false;
  for (size_t c = 0; c < t->schema().num_columns(); ++c) {
    // Column-name matching is normalised and substring-based so that
    // "author:levy" hits an "AuthorName" column (the paper's example) and
    // snake_case/camelCase column styles both work.
    std::string col_norm = NormalizeKeyword(t->schema().columns()[c].name);
    bool name_hit = col_norm.find(attribute) != std::string::npos;
    if (!name_hit) continue;
    const Value& v = tuple->at(c);
    if (v.is_null()) continue;
    for (const auto& tok : Tokenize(v.ToText())) {
      if (tok == keyword) return true;
    }
  }
  return false;
}

bool KeywordResolver::TupleColumnInRange(Rid rid, const std::string& attribute,
                                         double lo, double hi) const {
  const Table* t = db_->table(rid.table_id);
  const Tuple* tuple = db_->Get(rid);
  if (t == nullptr || tuple == nullptr) return false;
  for (size_t c = 0; c < t->schema().num_columns(); ++c) {
    std::string col_norm = NormalizeKeyword(t->schema().columns()[c].name);
    if (col_norm.find(attribute) == std::string::npos) continue;
    const Value& v = tuple->at(c);
    if (v.is_null()) continue;
    double d;
    if (v.type() == ValueType::kInt) {
      d = static_cast<double>(v.AsInt());
    } else if (v.type() == ValueType::kDouble) {
      d = v.AsDouble();
    } else {
      continue;
    }
    if (d >= lo && d <= hi) return true;
  }
  return false;
}

std::vector<KeywordMatch> KeywordResolver::ResolveNumeric(
    const QueryTerm& term, const MatchOptions& options) const {
  (void)options;
  const double centre = term.numeric_value;
  const double tol = std::max(term.numeric_tolerance, 0.0);
  const double lo = centre - tol, hi = centre + tol;
  auto relevance_of = [centre, tol](double v) {
    return 1.0 - std::abs(v - centre) / (tol + 1.0);
  };

  std::vector<std::pair<Rid, double>> hits;

  // Numeric columns via the numeric index.
  if (numeric_ != nullptr) {
    for (const auto& match : numeric_->LookupRange(lo, hi)) {
      if (!term.attribute.empty() &&
          !TupleColumnInRange(match.rid, term.attribute, lo, hi)) {
        continue;
      }
      hits.emplace_back(match.rid, relevance_of(match.value));
    }
  }

  // Integer tokens inside string attributes ("published around 1988" also
  // matches years mentioned in titles). Bounded sweep over the window.
  const int64_t ilo = static_cast<int64_t>(std::ceil(lo));
  const int64_t ihi = static_cast<int64_t>(std::floor(hi));
  if (ihi >= ilo && ihi - ilo <= 10'000) {
    for (int64_t k = ilo; k <= ihi; ++k) {
      std::string token = std::to_string(k);
      auto add_hits = [&](std::span<const Rid> postings) {
        for (Rid rid : postings) {
          if (!term.attribute.empty() &&
              !TupleColumnContains(rid, term.attribute, token)) {
            continue;
          }
          hits.emplace_back(rid, relevance_of(static_cast<double>(k)));
        }
      };
      add_hits(index_->Lookup(token));
      if (index_delta_ != nullptr) {
        if (const auto* extra = index_delta_->Lookup(token)) add_hits(*extra);
      }
    }
  }

  // Convert to nodes, keeping the best relevance per node.
  std::vector<KeywordMatch> matches;
  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [rid, rel] : hits) {
    NodeId n = NodeOf(rid);
    if (n == kInvalidNode) continue;
    if (!matches.empty() && matches.back().node == n) {
      matches.back().relevance = std::max(matches.back().relevance, rel);
    } else {
      matches.push_back(KeywordMatch{n, rel});
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const KeywordMatch& a, const KeywordMatch& b) {
              return a.node < b.node;
            });
  return matches;
}

std::vector<KeywordMatch> KeywordResolver::ResolveScored(
    const QueryTerm& term, const MatchOptions& options) const {
  if (term.kind == QueryTerm::Kind::kNumericApprox) {
    return ResolveNumeric(term, options);
  }

  // (rid, relevance) accumulation; duplicates keep the best relevance.
  std::vector<std::pair<Rid, double>> hits;

  // Expand the keyword over the base and delta vocabularies (identity when
  // approx matching is off); relevance decays with edit distance, prefix
  // expansions score 0.7.
  std::vector<std::string> keywords = ExpandKeyword(
      *index_,
      index_delta_ != nullptr ? std::span(index_delta_->keywords())
                              : std::span<const std::string>(),
      term.keyword, options.approx);
  if (keywords.empty()) keywords.push_back(term.keyword);

  for (const auto& kw : keywords) {
    double rel = 1.0;
    if (kw != term.keyword) {
      int d = BoundedEditDistance(term.keyword, kw,
                                  options.approx.max_edit_distance);
      rel = d <= options.approx.max_edit_distance
                ? 1.0 / (1.0 + d)
                : 0.7;  // prefix expansion
    }
    auto add_hits = [&](std::span<const Rid> postings) {
      if (term.attribute.empty()) {
        for (Rid rid : postings) hits.emplace_back(rid, rel);
      } else {
        for (Rid rid : postings) {
          if (TupleColumnContains(rid, term.attribute, kw)) {
            hits.emplace_back(rid, rel);
          }
        }
      }
    };
    add_hits(index_->Lookup(kw));
    // Tuples written after the snapshot froze are searchable through the
    // delta postings before any refreeze.
    if (index_delta_ != nullptr) {
      if (const auto* extra = index_delta_->Lookup(kw)) add_hits(*extra);
    }
  }

  // Metadata matches apply only to unrestricted terms (full relevance).
  if (options.include_metadata && term.attribute.empty()) {
    for (Rid rid : metadata_->LookupRids(*db_, term.keyword)) {
      hits.emplace_back(rid, 1.0);
    }
  }

  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<KeywordMatch> matches;
  for (const auto& [rid, rel] : hits) {
    NodeId n = NodeOf(rid);
    if (n == kInvalidNode) continue;  // unknown, or tombstoned by a delete
    if (!matches.empty() && matches.back().node == n) {
      matches.back().relevance = std::max(matches.back().relevance, rel);
    } else {
      matches.push_back(KeywordMatch{n, rel});
    }
  }
  return matches;
}

std::vector<NodeId> KeywordResolver::Resolve(
    const QueryTerm& term, const MatchOptions& options) const {
  std::vector<NodeId> nodes;
  for (const auto& m : ResolveScored(term, options)) nodes.push_back(m.node);
  return nodes;
}

std::vector<std::vector<KeywordMatch>> KeywordResolver::ResolveAllScored(
    const ParsedQuery& query, const MatchOptions& options) const {
  std::vector<std::vector<KeywordMatch>> sets;
  sets.reserve(query.terms.size());
  for (const auto& term : query.terms) {
    sets.push_back(ResolveScored(term, options));
  }
  return sets;
}

std::vector<std::vector<NodeId>> KeywordResolver::ResolveAll(
    const ParsedQuery& query, const MatchOptions& options) const {
  std::vector<std::vector<NodeId>> sets;
  sets.reserve(query.terms.size());
  for (const auto& term : query.terms) {
    sets.push_back(Resolve(term, options));
  }
  return sets;
}

}  // namespace banks
