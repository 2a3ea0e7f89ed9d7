// Query model (§2.3): keyword parsing and keyword-node resolution.
//
// A query is a list of search terms. Each term matches tuples whose textual
// attributes contain the keyword, plus (metadata matching) all tuples of
// relations whose table/column names contain it. The `attribute:keyword`
// form (§7, e.g. "author:levy") restricts a term to one named column.
#ifndef BANKS_CORE_QUERY_H_
#define BANKS_CORE_QUERY_H_

#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "index/approx_match.h"
#include "index/inverted_index.h"
#include "index/metadata_index.h"
#include "index/numeric_index.h"
#include "storage/database.h"
#include "update/delta_graph.h"
#include "update/index_delta.h"

namespace banks {

/// One search term: a keyword, or a numeric-proximity probe
/// ("approx(1988)" matches tuples with numeric values around 1988, §7).
struct QueryTerm {
  enum class Kind { kKeyword, kNumericApprox };

  Kind kind = Kind::kKeyword;
  std::string keyword;    ///< normalised keyword (display form for approx)
  std::string attribute;  ///< optional column restriction ("" = any)
  double numeric_value = 0.0;      ///< kNumericApprox: the centre
  double numeric_tolerance = 5.0;  ///< kNumericApprox: the +/- window

  bool operator==(const QueryTerm& o) const {
    return kind == o.kind && keyword == o.keyword &&
           attribute == o.attribute && numeric_value == o.numeric_value;
  }
};

/// A parsed keyword query.
struct ParsedQuery {
  std::vector<QueryTerm> terms;
};

/// Splits free text into terms; "attr:kw" tokens become restricted terms.
/// Empty/unnormalisable tokens are dropped.
ParsedQuery ParseQuery(const std::string& text);

/// Keyword-matching configuration.
struct MatchOptions {
  /// Match table/column names too (§2.3 metadata matching).
  bool include_metadata = true;
  /// Approximate expansion of keywords missing from the index.
  ApproxMatchOptions approx;
};

/// A keyword node with its match relevance in (0, 1]. Exact matches score
/// 1; fuzzy-expanded and numeric-approx matches score less, which the
/// scorer folds into answer relevance (§2.3 "extending the model to
/// incorporate node relevances").
struct KeywordMatch {
  NodeId node = kInvalidNode;
  double relevance = 1.0;

  bool operator==(const KeywordMatch& o) const {
    return node == o.node && relevance == o.relevance;
  }
};

/// Resolves query terms to graph-node sets.
///
/// The optional live-update overlays make post-freeze writes visible at
/// resolution time: `index_delta` contributes postings for tuples inserted
/// or updated since the snapshot froze, and `delta` maps their Rids to
/// overlay NodeIds while filtering tuples tombstoned by a delete. Both
/// null (the default) resolves against the frozen snapshot alone.
class KeywordResolver {
 public:
  KeywordResolver(const Database& db, const DataGraph& dg,
                  const InvertedIndex& index, const MetadataIndex& metadata,
                  const NumericIndex* numeric = nullptr,
                  const DeltaGraph* delta = nullptr,
                  const InvertedIndexDelta* index_delta = nullptr)
      : db_(&db),
        dg_(&dg),
        index_(&index),
        metadata_(&metadata),
        numeric_(numeric),
        delta_(delta),
        index_delta_(index_delta) {}

  /// Scored matches for one term (sorted by node, deduplicated keeping the
  /// best relevance per node).
  std::vector<KeywordMatch> ResolveScored(const QueryTerm& term,
                                          const MatchOptions& options) const;

  /// Nodes relevant to one term (sorted, deduplicated; drops relevances).
  std::vector<NodeId> Resolve(const QueryTerm& term,
                              const MatchOptions& options) const;

  /// Per-term scored sets for a whole query.
  std::vector<std::vector<KeywordMatch>> ResolveAllScored(
      const ParsedQuery& query, const MatchOptions& options) const;

  /// Per-term node sets for a whole query.
  std::vector<std::vector<NodeId>> ResolveAll(
      const ParsedQuery& query, const MatchOptions& options) const;

 private:
  bool TupleColumnContains(Rid rid, const std::string& attribute,
                           const std::string& keyword) const;
  bool TupleColumnInRange(Rid rid, const std::string& attribute, double lo,
                          double hi) const;
  std::vector<KeywordMatch> ResolveNumeric(const QueryTerm& term,
                                           const MatchOptions& options) const;

  /// NodeId of `rid` across snapshot + overlay (kInvalidNode if unknown
  /// or tombstoned by a post-freeze delete).
  NodeId NodeOf(Rid rid) const {
    return ResolveNodeForRid(*dg_, delta_, rid);
  }

  const Database* db_;
  const DataGraph* dg_;
  const InvertedIndex* index_;
  const MetadataIndex* metadata_;
  const NumericIndex* numeric_;  ///< optional; approx() still uses tokens
  const DeltaGraph* delta_;              ///< optional live-update overlay
  const InvertedIndexDelta* index_delta_;  ///< optional delta postings
};

}  // namespace banks

#endif  // BANKS_CORE_QUERY_H_
