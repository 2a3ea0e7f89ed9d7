#include "index/inverted_index.h"

#include <algorithm>
#include <iterator>
#include <ranges>

#include "index/tokenizer.h"

namespace banks {

struct InvertedIndex::Layout {
  std::string blob;
  std::vector<uint64_t> keyword_offsets{0};
  std::vector<uint64_t> posting_offsets{0};
  std::vector<Rid> postings;

  void Append(std::string_view keyword, std::span<const Rid> rids) {
    blob.append(keyword);
    keyword_offsets.push_back(blob.size());
    postings.insert(postings.end(), rids.begin(), rids.end());
    posting_offsets.push_back(postings.size());
  }
};

namespace {

void AddTokens(std::string_view text, Rid rid,
               std::unordered_map<std::string, std::vector<Rid>>* lists) {
  for (auto& tok : Tokenize(text)) (*lists)[std::move(tok)].push_back(rid);
}

void SortUnique(std::vector<Rid>* rids) {
  std::sort(rids->begin(), rids->end());
  rids->erase(std::unique(rids->begin(), rids->end()), rids->end());
}

}  // namespace

InvertedIndex::InvertedIndex(std::string_view keyword_blob,
                             std::span<const uint64_t> keyword_offsets,
                             std::span<const uint64_t> posting_offsets,
                             std::span<const Rid> postings,
                             std::shared_ptr<const void> arena)
    : blob_(keyword_blob),
      keyword_offsets_(keyword_offsets),
      posting_offsets_(posting_offsets),
      postings_(postings),
      storage_(std::move(arena)),
      is_view_(true) {}

std::shared_ptr<const InvertedIndex::Layout> InvertedIndex::SortedLayout(
    Lists lists) {
  std::vector<Lists::value_type*> order;
  order.reserve(lists.size());
  size_t blob_bytes = 0, total = 0;
  for (auto& entry : lists) {
    order.push_back(&entry);
    blob_bytes += entry.first.size();
    total += entry.second.size();
  }
  std::sort(order.begin(), order.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  auto layout = std::make_shared<Layout>();
  layout->blob.reserve(blob_bytes);
  layout->keyword_offsets.reserve(order.size() + 1);
  layout->posting_offsets.reserve(order.size() + 1);
  layout->postings.reserve(total);
  for (auto* entry : order) {
    SortUnique(&entry->second);
    layout->Append(entry->first, entry->second);
  }
  return layout;
}

void InvertedIndex::Adopt(std::shared_ptr<const Layout> layout) {
  blob_ = layout->blob;
  keyword_offsets_ = layout->keyword_offsets;
  posting_offsets_ = layout->posting_offsets;
  postings_ = layout->postings;
  storage_ = std::move(layout);
  is_view_ = false;
}

void InvertedIndex::Build(const Database& db) {
  Lists lists;
  for (const auto& name : db.table_names()) {
    if (!name.empty() && name[0] == '_') continue;  // system tables
    const Table* t = db.table(name);
    // Which columns are textual?
    std::vector<size_t> text_cols;
    for (size_t c = 0; c < t->schema().num_columns(); ++c) {
      if (t->schema().columns()[c].type == ValueType::kString) {
        text_cols.push_back(c);
      }
    }
    if (text_cols.empty()) continue;
    for (uint32_t r = 0; r < t->num_rows(); ++r) {
      if (t->IsDeleted(r)) continue;
      Rid rid{t->id(), r};
      for (size_t c : text_cols) {
        const Value& v = t->row(r).at(c);
        if (!v.is_null()) AddTokens(v.AsString(), rid, &lists);
      }
    }
  }
  Adopt(SortedLayout(std::move(lists)));
}

InvertedIndex InvertedIndex::FromTexts(
    const std::vector<std::pair<std::string, Rid>>& texts) {
  Lists lists;
  for (const auto& [text, rid] : texts) AddTokens(text, rid, &lists);
  InvertedIndex index;
  index.Adopt(SortedLayout(std::move(lists)));
  return index;
}

void InvertedIndex::PatchPostings(const Patch& patch) {
  auto layout = std::make_shared<Layout>();
  layout->blob.reserve(blob_.size());
  layout->keyword_offsets.reserve(keyword_offsets_.size() + patch.size());
  layout->posting_offsets.reserve(posting_offsets_.size() + patch.size());
  layout->postings.reserve(postings_.size());
  const size_t n = num_keywords();
  size_t i = 0;
  std::vector<Rid> add, remove, kept, merged;
  for (const auto& [kw, p] : patch) {
    for (; i < n && keyword(i) < kw; ++i) {
      layout->Append(keyword(i), postings(i));
    }
    std::span<const Rid> base;
    if (i < n && keyword(i) == kw) base = postings(i++);
    add = p.add;
    SortUnique(&add);
    remove = p.remove;
    SortUnique(&remove);
    kept.clear();
    std::set_difference(base.begin(), base.end(), remove.begin(), remove.end(),
                        std::back_inserter(kept));
    merged.clear();
    std::set_union(kept.begin(), kept.end(), add.begin(), add.end(),
                   std::back_inserter(merged));
    if (!merged.empty()) layout->Append(kw, merged);
  }
  for (; i < n; ++i) layout->Append(keyword(i), postings(i));
  Adopt(std::move(layout));
}

size_t InvertedIndex::LowerBound(std::string_view target) const {
  const auto ids = std::views::iota(size_t{0}, num_keywords());
  const auto it = std::ranges::partition_point(
      ids, [&](size_t i) { return keyword(i) < target; });
  return static_cast<size_t>(it - ids.begin());
}

std::span<const Rid> InvertedIndex::Lookup(std::string_view raw) const {
  const std::string kw = NormalizeKeyword(raw);
  const size_t i = LowerBound(kw);
  if (i == num_keywords() || keyword(i) != kw) return {};
  return postings(i);
}

std::vector<std::string> InvertedIndex::KeywordsWithPrefix(
    std::string_view prefix) const {
  const std::string p = NormalizeKeyword(prefix);
  std::vector<std::string> out;
  for (size_t i = LowerBound(p);
       i < num_keywords() && keyword(i).starts_with(p); ++i) {
    out.emplace_back(keyword(i));
  }
  return out;
}

}  // namespace banks
