// Approximate keyword matching (§2.3 extension; §7 "some form of
// approximate matching").
//
// Expands a query keyword to index keywords within a bounded edit distance
// or sharing a prefix. The BANKS query layer can then union the posting
// lists of all expansions.
//
// Candidates never come from a scan of the index: prefix extensions are one
// lower_bound range of the sorted keywords, and keywords within distance k
// come from a walk over the sorted keywords as an implicit trie (Schulz &
// Mihov 2002). The walk carries one banded Levenshtein row per trie depth,
// so keywords sharing a prefix share its rows, and it skips a whole subtree
// (a partition_point over the next character) once the row's minimum
// exceeds k.
#ifndef BANKS_INDEX_APPROX_MATCH_H_
#define BANKS_INDEX_APPROX_MATCH_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "index/inverted_index.h"

namespace banks {

/// How to expand keywords that miss the index.
struct ApproxMatchOptions {
  bool enable = false;
  int max_edit_distance = 1;   ///< Levenshtein bound for fuzzy expansion
  bool allow_prefix = true;    ///< also match keywords with the query prefix
  size_t max_expansions = 8;   ///< cap on expanded keywords per term
};

/// Returns index keywords considered equivalent to `keyword` under `opts`,
/// best (closest) first. The exact keyword, when present in the index, is
/// always first; the others rank by (edit distance, keyword), with prefix
/// extensions beyond the distance bound after every fuzzy hit, up to
/// `max_expansions` keywords in all.
std::vector<std::string> ExpandKeyword(const InvertedIndex& index,
                                       const std::string& keyword,
                                       const ApproxMatchOptions& opts);

/// The same over the vocabulary of `index` plus `extra` — normalised
/// keywords indexed elsewhere (the post-freeze delta postings), in any
/// order and possibly overlapping the index. `extra` is scanned linearly,
/// so it must stay small; an exact hit in either vocabulary comes first.
std::vector<std::string> ExpandKeyword(const InvertedIndex& index,
                                       std::span<const std::string> extra,
                                       const std::string& keyword,
                                       const ApproxMatchOptions& opts);

}  // namespace banks

#endif  // BANKS_INDEX_APPROX_MATCH_H_
