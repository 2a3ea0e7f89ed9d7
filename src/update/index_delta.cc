#include "update/index_delta.h"

#include <algorithm>

#include "index/tokenizer.h"

namespace banks {

void InvertedIndexDelta::AddTuple(const Database& db, Rid rid) {
  const Table* t = db.table(rid.table_id);
  if (t == nullptr || rid.row >= t->num_rows()) return;
  const Tuple& tuple = t->row(rid.row);
  for (size_t c = 0; c < t->schema().num_columns(); ++c) {
    if (t->schema().columns()[c].type != ValueType::kString) continue;
    const Value& v = tuple.at(c);
    if (!v.is_null()) AddText(v.AsString(), rid);
  }
}

void InvertedIndexDelta::AddText(const std::string& text, Rid rid) {
  for (auto& tok : Tokenize(text)) {
    auto [it, fresh] = postings_.try_emplace(tok);
    if (fresh) keywords_.push_back(std::move(tok));
    auto& list = it->second;
    if (std::find(list.begin(), list.end(), rid) == list.end()) {
      list.push_back(rid);
    }
  }
}

const std::vector<Rid>* InvertedIndexDelta::Lookup(
    const std::string& keyword) const {
  auto it = postings_.find(keyword);
  return it == postings_.end() ? nullptr : &it->second;
}

}  // namespace banks
