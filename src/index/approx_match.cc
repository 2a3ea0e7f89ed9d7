#include "index/approx_match.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ranges>
#include <string_view>

#include "index/tokenizer.h"
#include "util/string_util.h"

namespace banks {

namespace {

struct Candidate {
  int dist;
  std::string_view kw;
  bool operator<(const Candidate& o) const {
    return dist != o.dist ? dist < o.dist : kw < o.kw;
  }
};

// Appends every keyword of `index` other than `term` within edit distance
// `k` of it, with that distance.
//
// The walk visits the implicit trie of the sorted keywords depth-first. A
// node at depth i is a range of keywords sharing an i-character prefix P;
// its row holds the Levenshtein distances of P to the prefixes of `term`,
// but only on the band of columns j in [lo(i), hi(i)] = [i - k, i + k]
// clipped to [0, |term|], since every cell off the band exceeds k. Row i
// is stored at rows[i * stride], cell b holding column lo(i) + b, then one
// sentinel cell; values saturate at k + 1. The minimum of a row never
// decreases along a path, so a child whose row minimum exceeds k is
// skipped with its whole subtree.
void CollectWithinDistance(const InvertedIndex& index, std::string_view term,
                           int k, std::vector<Candidate>* out) {
  const size_t n = index.num_keywords();
  if (k < 0 || n == 0) return;
  // Character d of keyword w, read straight from the layout.
  const char* blob = index.keyword_blob().data();
  const uint64_t* offsets = index.keyword_offsets().data();
  const auto char_at = [blob, offsets](size_t w, size_t d) {
    return blob[offsets[w] + d];
  };
  const int64_t m = static_cast<int64_t>(term.size());
  const int inf = k + 1;
  const auto lo = [k](int64_t i) { return std::max<int64_t>(0, i - k); };
  const auto hi = [k, m](int64_t i) { return std::min<int64_t>(m, i + k); };
  const int64_t stride = std::min<int64_t>(2 * int64_t{k} + 1, m + 1) + 1;

  std::vector<int> rows(static_cast<size_t>(stride), inf);
  for (int64_t j = 0; j <= hi(0); ++j) rows[j] = static_cast<int>(j);

  // One frame per depth d: keywords [next, end) share the depth-d prefix,
  // are longer than d, and have not been visited yet.
  struct Frame {
    size_t next;
    size_t end;
  };
  std::vector<Frame> stack{{0, n}};
  while (!stack.empty()) {
    const size_t d = stack.size() - 1;
    Frame& frame = stack.back();
    if (frame.next == frame.end) {
      stack.pop_back();
      continue;
    }
    // The child through character c: the keywords with c at position d.
    const size_t begin = frame.next;
    const char c = char_at(begin, d);
    const auto ids = std::views::iota(begin + 1, frame.end);
    const size_t end =
        begin + 1 +
        static_cast<size_t>(
            std::ranges::partition_point(
                ids, [&](size_t w) { return char_at(w, d) == c; }) -
            ids.begin());
    frame.next = end;

    // Row i = d + 1 from row d. The band start moves by `shift` (0 or 1)
    // columns, so column j of the parent row is prev[j - lo(i) + shift];
    // the parent's sentinel stands in for the column just past its band.
    const int64_t i = static_cast<int64_t>(d) + 1;
    const int64_t clo = lo(i), chi = hi(i), shift = clo - lo(i - 1);
    if (rows.size() < static_cast<size_t>((i + 1) * stride)) {
      rows.resize(static_cast<size_t>((i + 1) * stride));
    }
    const int* prev = rows.data() + (i - 1) * stride;
    int* cur = rows.data() + i * stride;
    int left = inf, row_min = inf;
    for (int64_t b = 0, j = clo; j <= chi; ++b, ++j) {
      int v = std::min(prev[b + shift] + 1, left + 1);
      if (j >= 1) v = std::min(v, prev[b + shift - 1] + (term[j - 1] != c));
      v = std::min(v, inf);
      cur[b] = left = v;
      row_min = std::min(row_min, v);
    }
    if (row_min > k) continue;
    cur[chi - clo + 1] = inf;

    size_t below = begin;
    const uint64_t size = offsets[begin + 1] - offsets[begin];
    if (static_cast<int64_t>(size) == i) {
      // The prefix itself is a keyword (it sorts first in its range).
      const std::string_view kw(blob + offsets[begin], size);
      if (m >= clo && m <= chi && cur[m - clo] <= k && kw != term) {
        out->push_back(Candidate{cur[m - clo], kw});
      }
      ++below;
    }
    if (below < end) stack.push_back(Frame{below, end});
  }
}

// Appends, in ascending order, up to `limit` keywords extending `term` by
// more than max(k, 0) characters. Their distance exceeds k, so the walk
// above never reports them; they rank after every fuzzy hit, as k + 1.
void CollectPrefixOnly(const InvertedIndex& index, std::string_view term,
                       int k, size_t limit, std::vector<Candidate>* out) {
  const size_t min_size = term.size() + static_cast<size_t>(std::max(k, 0));
  size_t taken = 0;
  for (size_t i = index.LowerBound(term);
       taken < limit && i < index.num_keywords(); ++i) {
    const std::string_view kw = index.keyword(i);
    if (!kw.starts_with(term)) break;
    if (kw.size() <= min_size) continue;
    out->push_back(Candidate{k + 1, kw});
    ++taken;
  }
}

}  // namespace

std::vector<std::string> ExpandKeyword(const InvertedIndex& index,
                                       const std::string& raw_keyword,
                                       const ApproxMatchOptions& opts) {
  return ExpandKeyword(index, {}, raw_keyword, opts);
}

std::vector<std::string> ExpandKeyword(const InvertedIndex& index,
                                       std::span<const std::string> extra,
                                       const std::string& raw_keyword,
                                       const ApproxMatchOptions& opts) {
  const std::string keyword = NormalizeKeyword(raw_keyword);
  std::vector<std::string> out;
  if (keyword.empty()) return out;

  const bool exact = !index.Lookup(keyword).empty() ||
                     std::ranges::find(extra, keyword) != extra.end();
  if (exact) out.push_back(keyword);
  if (!opts.enable || out.size() >= opts.max_expansions) return out;
  const size_t room = opts.max_expansions - out.size();
  // Keeps the saturated distance k + 1 (and + 1 on top) representable.
  const int k =
      std::min(opts.max_edit_distance, std::numeric_limits<int>::max() - 2);

  // Rank candidates by (edit distance, keyword) and keep the best few.
  std::vector<Candidate> cands;
  CollectWithinDistance(index, keyword, k, &cands);
  if (opts.allow_prefix) CollectPrefixOnly(index, keyword, k, room, &cands);
  for (const std::string& kw : extra) {
    if (kw == keyword) continue;
    int d = BoundedEditDistance(keyword, kw, k);
    if (d > k) {
      if (!opts.allow_prefix || kw.size() <= keyword.size() ||
          !StartsWith(kw, keyword)) {
        continue;
      }
      d = k + 1;
    }
    // A keyword the index also holds is ranked from the index already
    // (or ranks past `room` prefix-only hits of the index).
    if (index.Lookup(kw).empty()) cands.push_back(Candidate{d, kw});
  }
  const size_t take = std::min(room, cands.size());
  std::partial_sort(cands.begin(), cands.begin() + take, cands.end());
  out.reserve(out.size() + take);
  for (size_t i = 0; i < take; ++i) out.emplace_back(cands[i].kw);
  return out;
}

}  // namespace banks
