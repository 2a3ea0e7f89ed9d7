// Keyword -> RID inverted index.
//
// §3 of the paper: "Indices to map keywords to RIDs can be disk resident."
// This index is built in memory by scanning every textual attribute of every
// table, and persisted as four sections of the snapshot file (src/snapshot/).
//
// Layout (one per epoch, immutable once constructed):
//   keyword_blob     the distinct keywords, concatenated in ascending order
//   keyword_offsets  uint64[num_keywords + 1]: keyword i is
//                    blob[keyword_offsets[i], keyword_offsets[i + 1])
//   posting_offsets  uint64[num_keywords + 1]: keyword i's tuples are
//                    postings[posting_offsets[i], posting_offsets[i + 1])
//   postings         Rid[num_postings], sorted and deduplicated per keyword
//
// Lookup is a binary search; prefix queries are one lower_bound range; the
// approximate matcher (approx_match.h) walks the sorted keywords as an
// implicit trie. The arrays either live in a heap block this index owns
// (Build, FromTexts, PatchPostings) or point into a mapped snapshot file
// (the view constructor) — one type-erased keep-alive covers both, so
// copying an index is O(1) and a copy stays valid after the original dies.
// Invariants (the snapshot reader validates them before adopting a view):
// keywords are non-empty and strictly ascending, and every keyword has at
// least one posting.
#ifndef BANKS_INDEX_INVERTED_INDEX_H_
#define BANKS_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "storage/rid.h"

namespace banks {

/// Posting lists mapping normalised keywords to the tuples containing them.
class InvertedIndex {
 public:
  /// Rids to add to and remove from one keyword's posting list.
  struct PostingPatch {
    std::vector<Rid> add;
    std::vector<Rid> remove;
  };
  /// Per-keyword patches in ascending keyword order. Keywords must be
  /// normalised tokens (Tokenize output).
  using Patch = std::map<std::string, PostingPatch>;

  InvertedIndex() = default;

  /// View constructor: adopts the four layout arrays (see the file
  /// comment) without copying an element; `arena` keeps them alive for the
  /// lifetime of this index and every copy of it. The caller guarantees
  /// the invariants (the snapshot reader checks them in one linear pass).
  InvertedIndex(std::string_view keyword_blob,
                std::span<const uint64_t> keyword_offsets,
                std::span<const uint64_t> posting_offsets,
                std::span<const Rid> postings,
                std::shared_ptr<const void> arena);

  /// Scans all string columns of all tables in `db` and builds postings.
  /// Each RID appears at most once per keyword (duplicate tokens in one
  /// tuple collapse).
  void Build(const Database& db);

  /// Index over explicit (text, rid) pairs, tokenized as Build tokenizes
  /// attribute values (fixtures and tests).
  static InvertedIndex FromTexts(
      const std::vector<std::pair<std::string, Rid>>& texts);

  /// Merge-refreeze entry point (update/refreeze.cc): replaces this index
  /// with a fresh layout equal to the current one with `patch` applied, in
  /// one linear merge of the sorted keyword arrays. Per keyword, removals
  /// apply first, then additions; duplicates are no-ops; a list emptied
  /// by the patch is dropped, as Build would never have created it — so a
  /// patched index is indistinguishable from a freshly built one.
  /// `add`/`remove` need not be sorted. Copies taken before the call keep
  /// the old layout.
  void PatchPostings(const Patch& patch);

  /// Tuples containing `keyword` (already-normalised or raw; it is
  /// normalised internally), sorted by Rid. The span lives as long as this
  /// index or any copy of it.
  std::span<const Rid> Lookup(std::string_view keyword) const;

  /// All keywords with `prefix`, ascending.
  std::vector<std::string> KeywordsWithPrefix(std::string_view prefix) const;

  /// Position of the first keyword not less than `target` (which must be
  /// normalised); num_keywords() if none.
  size_t LowerBound(std::string_view target) const;

  size_t num_keywords() const { return keyword_offsets_.size() - 1; }
  size_t num_postings() const { return postings_.size(); }

  /// The i-th keyword in ascending order, and its postings.
  std::string_view keyword(size_t i) const {
    return blob_.substr(keyword_offsets_[i],
                        keyword_offsets_[i + 1] - keyword_offsets_[i]);
  }
  std::span<const Rid> postings(size_t i) const {
    return postings_.subspan(posting_offsets_[i],
                             posting_offsets_[i + 1] - posting_offsets_[i]);
  }

  /// The raw layout arrays (the snapshot writer and the approximate
  /// matcher read these).
  std::string_view keyword_blob() const { return blob_; }
  std::span<const uint64_t> keyword_offsets() const {
    return keyword_offsets_;
  }
  std::span<const uint64_t> posting_offsets() const {
    return posting_offsets_;
  }
  std::span<const Rid> all_postings() const { return postings_; }

  /// True when the layout points into externally-owned storage (the
  /// mapped snapshot; the bench zero-copy gate checks this).
  bool is_view() const { return is_view_; }

 private:
  struct Layout;
  using Lists = std::unordered_map<std::string, std::vector<Rid>>;

  /// Sorts keywords and dedups each list into a fresh owned layout.
  static std::shared_ptr<const Layout> SortedLayout(Lists lists);
  void Adopt(std::shared_ptr<const Layout> layout);

  static constexpr uint64_t kNoOffsets[1] = {0};

  std::string_view blob_;
  std::span<const uint64_t> keyword_offsets_ = kNoOffsets;
  std::span<const uint64_t> posting_offsets_ = kNoOffsets;
  std::span<const Rid> postings_;
  std::shared_ptr<const void> storage_;  // owned Layout or mapped file
  bool is_view_ = false;
};

}  // namespace banks

#endif  // BANKS_INDEX_INVERTED_INDEX_H_
