// Keyword postings for tuples inserted or updated since the last refreeze.
//
// The base InvertedIndex is finalized (sorted, deduplicated) and shared by
// every concurrent reader, so new text cannot be merged into it in place.
// This side index holds only the delta postings; the KeywordResolver
// consults it after the base index, so a freshly inserted tuple matching
// keyword K is searchable *before* any refreeze. Deletions need no entry
// here: the resolver drops rids whose node is tombstoned in the DeltaGraph,
// and updates simply add the new value's tokens (the old value's base
// postings go stale until the refreeze rebuilds the index — a lookup
// through them is filtered the same way a deleted tuple is, by re-checking
// nothing: stale hits surface the *current* tuple, which is the row the
// user asked about, so staleness here only ever widens recall).
//
// Copy-on-write like DeltaGraph: the coordinator clones, adds, publishes.
#ifndef BANKS_UPDATE_INDEX_DELTA_H_
#define BANKS_UPDATE_INDEX_DELTA_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/database.h"
#include "storage/rid.h"

namespace banks {

/// Unsorted keyword -> Rid postings for post-freeze writes.
class InvertedIndexDelta {
 public:
  /// Tokenizes every string column of `rid` and records the postings.
  void AddTuple(const Database& db, Rid rid);

  /// Tokenizes one value's text (update path).
  void AddText(const std::string& text, Rid rid);

  /// Delta postings for an already-normalised keyword, or nullptr. Each
  /// rid appears at most once per keyword.
  const std::vector<Rid>* Lookup(const std::string& keyword) const;

  /// The delta vocabulary, in first-insertion order: approximate matching
  /// expands over it next to the base index's (core/query.cc).
  const std::vector<std::string>& keywords() const { return keywords_; }

 private:
  std::unordered_map<std::string, std::vector<Rid>> postings_;
  std::vector<std::string> keywords_;
};

/// Shared immutable view of one published delta-index generation.
using IndexDeltaSnapshot = std::shared_ptr<const InvertedIndexDelta>;

}  // namespace banks

#endif  // BANKS_UPDATE_INDEX_DELTA_H_
