#include "gen.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "datagen/names.h"
#include "index/tokenizer.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

using banks::Database;
using banks::Mutation;
using banks::Rid;
using banks::Rng;
using banks::Tuple;
using banks::Value;

banks::DblpConfig DatasetConfig(uint64_t seed) {
  banks::DblpConfig config;
  config.num_authors = 12'000;
  config.num_papers = 20'000;
  config.authors_per_paper_mean = 2.2;
  config.cites_per_paper_mean = 1.2;
  config.seed = seed;
  return config;
}

const char* FormName(Form form) {
  switch (form) {
    case Form::kCoauthors:    return "coauthors";
    case Form::kAuthorTitle:  return "author+title";
    case Form::kTitleWords:   return "title+title";
    case Form::kPlantedTitle: return "planted+title";
    case Form::kHeavy:        return "heavy";
  }
  return "?";
}

std::vector<std::string> FormNames() {
  std::vector<std::string> names;
  for (int f = 0; f < kNumForms; ++f) names.push_back(FormName(Form(f)));
  return names;
}

namespace {

std::string Surname(const std::string& name) {
  std::vector<std::string> tokens = banks::Tokenize(name);
  return tokens.empty() ? std::string() : tokens.back();
}

std::vector<std::string> DistinctTokens(const std::string& text) {
  std::vector<std::string> tokens = banks::Tokenize(text);
  std::vector<std::string> out;
  for (auto& t : tokens) {
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
  }
  return out;
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

}  // namespace

// ------------------------------------------------------------------ queries

QueryGen::QueryGen(const banks::DblpDataset& ds, uint64_t seed)
    : state_(seed ^ 0x9e3779b97f4a7c15ull) {
  const Database& db = ds.db;
  const banks::Table* authors = db.table(banks::kAuthorTable);
  const banks::Table* papers = db.table(banks::kPaperTable);
  const banks::Table* writes = db.table(banks::kWritesTable);

  std::unordered_map<std::string, uint32_t> author_index;
  for (const Tuple& row : authors->rows()) {
    author_index.emplace(row.at(0).ToText(),
                         static_cast<uint32_t>(authors_.size()));
    authors_.push_back({Surname(row.at(1).ToText()), {}});
  }
  std::unordered_map<std::string, uint32_t> paper_index;
  for (const Tuple& row : papers->rows()) {
    paper_index.emplace(row.at(0).ToText(),
                        static_cast<uint32_t>(titles_.size()));
    titles_.push_back(DistinctTokens(row.at(1).ToText()));
  }
  paper_authors_.resize(titles_.size());
  for (const Tuple& row : writes->rows()) {
    uint32_t a = author_index.at(row.at(0).ToText());
    uint32_t p = paper_index.at(row.at(1).ToText());
    authors_[a].papers.push_back(p);
    paper_authors_[p].push_back(a);
  }

  // Planted class: the prolific anecdote authors, whose queries find their
  // answers near the start of expansion.
  const banks::DblpPlanted& pl = ds.planted;
  for (const std::string* id :
       {&pl.c_mohan, &pl.mohan_ahuja, &pl.stonebraker}) {
    if (!id->empty()) planted_.push_back(author_index.at(*id));
  }

  // The heavy tail: two §5.1 anecdote pairs, and the surname of a sparse
  // anecdote author (Seltzer, Bostic, Olson: two papers each, none widely
  // cited) with a rare title word (one title in the whole dataset, outside
  // the generator's title pool) of one of those authors' papers. Such a
  // query finds fewer than max_answers answers near its keywords, so
  // backward search exhausts the graph from two sources: bounded, and an
  // order of magnitude above the light forms, at a similar cost for every
  // member (0.6-1 s).
  std::unordered_set<std::string> common;
  for (const std::string& w : banks::NamePool::TitleWords()) {
    common.insert(Lower(w));
  }
  std::unordered_map<std::string, size_t> df;
  for (const auto& words : titles_) {
    for (const std::string& w : words) ++df[w];
  }
  std::vector<std::string> sparse, rare;
  for (const std::string* id : {&pl.seltzer, &pl.bostic, &pl.olson}) {
    if (id->empty()) continue;
    const Author& a = authors_[author_index.at(*id)];
    sparse.push_back(a.surname);
    for (uint32_t p : a.papers) {
      for (const std::string& w : titles_[p]) {
        if (w.size() > 3 && df[w] == 1 && !common.count(w) &&
            std::find(rare.begin(), rare.end(), w) == rare.end()) {
          rare.push_back(w);
        }
      }
    }
  }
  for (const std::string& s : sparse) {
    for (const std::string& w : rare) heavy_pool_.push_back(s + " " + w);
  }
  heavy_pool_.push_back("soumen sunita");
  heavy_pool_.push_back("stonebraker seltzer");
  Rng rng(state_);
  rng.Shuffle(&heavy_pool_);
}

std::string QueryGen::TitleWord(uint32_t paper) {
  const auto& words = titles_[paper];
  Rng rng(state_++);
  return words[rng.Uniform(words.size())];
}

bool QueryGen::Draw(Form form, std::string* text) {
  Rng rng(state_++);
  switch (form) {
    case Form::kCoauthors: {
      uint32_t p = static_cast<uint32_t>(rng.Uniform(titles_.size()));
      const auto& as = paper_authors_[p];
      if (as.size() < 2) return false;
      size_t i = rng.Uniform(as.size());
      size_t j = rng.Uniform(as.size() - 1);
      if (j >= i) ++j;
      const std::string& a = authors_[as[i]].surname;
      const std::string& b = authors_[as[j]].surname;
      if (a.empty() || b.empty() || a == b) return false;
      *text = a + " " + b;
      return true;
    }
    case Form::kAuthorTitle: {
      uint32_t p = static_cast<uint32_t>(rng.Uniform(titles_.size()));
      const auto& as = paper_authors_[p];
      if (as.empty() || titles_[p].empty()) return false;
      const std::string& a = authors_[as[rng.Uniform(as.size())]].surname;
      std::string w = TitleWord(p);
      if (a.empty() || a == w) return false;
      *text = a + " " + w;
      return true;
    }
    case Form::kTitleWords: {
      uint32_t p = static_cast<uint32_t>(rng.Uniform(titles_.size()));
      const auto& words = titles_[p];
      if (words.size() < 2) return false;
      size_t i = rng.Uniform(words.size());
      size_t j = rng.Uniform(words.size() - 1);
      if (j >= i) ++j;
      *text = words[i] + " " + words[j];
      return true;
    }
    case Form::kPlantedTitle: {
      if (planted_.empty()) return false;
      // The authors take turns, so every run asks each of them equally
      // often: their queries differ in cost.
      const Author& a = authors_[planted_[next_planted_ % planted_.size()]];
      if (a.papers.empty()) return false;
      std::string w = TitleWord(a.papers[rng.Uniform(a.papers.size())]);
      if (w == a.surname) return false;
      *text = a.surname + " " + w;
      return true;
    }
    case Form::kHeavy:
      if (next_heavy_ >= heavy_pool_.size()) return false;
      *text = heavy_pool_[next_heavy_++];
      return true;
  }
  return false;
}

bool QueryGen::Emit(Form form, std::vector<Query>* out) {
  // Bounded retries: a draw can collide with an earlier query or land on a
  // paper without the needed shape.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::string text;
    if (!Draw(form, &text)) {
      if (form == Form::kHeavy) return false;  // pool exhausted
      continue;
    }
    if (!seen_.insert(text).second) continue;
    out->push_back({std::move(text), form});
    if (form == Form::kPlantedTitle) ++next_planted_;
    return true;
  }
  return false;
}

std::vector<Query> QueryGen::Cold(size_t count) {
  std::vector<Query> out;
  out.reserve(count);
  constexpr Form kLight[] = {Form::kCoauthors, Form::kAuthorTitle,
                             Form::kTitleWords};
  size_t light = 0;
  Rng rng(state_++);
  while (out.size() < count) {
    std::vector<Form> block;
    for (size_t i = 0; i < kLightPerBlock; ++i) {
      block.push_back(kLight[light++ % 3]);
    }
    block.insert(block.end(), kPlantedPerBlock, Form::kPlantedTitle);
    rng.Shuffle(&block);
    // Heavy queries sit at fixed, evenly spaced slots: two never arrive
    // back to back, so one can never stall both connections at once.
    for (size_t h = 0; h < kHeavyPerBlock; ++h) {
      block.insert(block.begin() + long((2 * h + 1) * kBlock /
                                        (2 * kHeavyPerBlock)),
                   Form::kHeavy);
    }
    for (Form f : block) {
      if (out.size() == count) break;
      if (!Emit(f, &out)) return {};
    }
  }
  return out;
}

std::vector<Query> QueryGen::Light(size_t count) {
  std::vector<Query> out;
  constexpr Form kForms[] = {Form::kCoauthors, Form::kAuthorTitle,
                             Form::kTitleWords, Form::kPlantedTitle};
  for (size_t i = 0; out.size() < count; ++i) {
    if (!Emit(kForms[i % 4], &out)) return {};
  }
  return out;
}

std::vector<uint32_t> ZipfStream(size_t n, size_t count, uint64_t seed) {
  banks::ZipfSampler zipf(n, 1.0);
  Rng rng(seed ^ 0x5bd1e995ull);
  std::vector<uint32_t> out(count);
  for (auto& v : out) v = static_cast<uint32_t>(zipf.Sample(&rng));
  return out;
}

// ---------------------------------------------------------------- mutations

MutationGen::MutationGen(const banks::DblpDataset& ds, uint64_t seed)
    : seed_(seed ^ 0xc2b2ae3d27d4eb4full) {
  const Database& db = ds.db;
  const banks::Table* authors = db.table(banks::kAuthorTable);
  const banks::Table* papers = db.table(banks::kPaperTable);
  paper_table_ = papers->id();
  writes_table_ = db.table(banks::kWritesTable)->id();
  cites_table_ = db.table(banks::kCitesTable)->id();
  base_papers_ = static_cast<uint32_t>(papers->num_rows());
  base_writes_ =
      static_cast<uint32_t>(db.table(banks::kWritesTable)->num_rows());
  base_cites_ = static_cast<uint32_t>(db.table(banks::kCitesTable)->num_rows());
  for (const Tuple& row : papers->rows()) {
    base_paper_ids_.push_back(row.at(0).ToText());
  }

  Rng rng(seed_);
  // The writer's 32 authors: distinct rows past the planted block, so the
  // anecdote link structure stays as generated.
  std::unordered_set<size_t> chosen;
  const size_t first_filler = std::min<size_t>(authors->num_rows(), 64);
  while (author_ids_.size() < 32) {
    size_t row = first_filler + rng.Uniform(authors->num_rows() - first_filler);
    if (!chosen.insert(row).second) continue;
    const Tuple& t = authors->rows()[row];
    std::string surname = Surname(t.at(1).ToText());
    author_ids_.push_back(t.at(0).ToText());
    author_names_.push_back(surname);
  }
  std::vector<std::string> pool;
  for (const std::string& w : banks::NamePool::TitleWords()) {
    pool.push_back(Lower(w));
  }
  rng.Shuffle(&pool);
  words_.assign(pool.begin(), pool.begin() + 12);
}

std::string MutationGen::Title(uint64_t* state) const {
  Rng rng((*state)++);
  const auto& pool = banks::NamePool::TitleWords();
  std::string title = words_[rng.Uniform(words_.size())];
  title[0] = static_cast<char>(std::toupper(title[0]));
  title += " " + words_[rng.Uniform(words_.size())];
  title += " " + Lower(pool[rng.Uniform(pool.size())]);
  title += " " + Lower(pool[rng.Uniform(pool.size())]);
  return title;
}

Batch MutationGen::Make(size_t b) const {
  uint64_t state = seed_ + 0x100000001b3ull * (b + 1);
  Rng rng(state++);
  Batch batch;
  batch.mutations.reserve(kBatchSize);
  std::string& body = batch.body;
  body = "{\"mutations\":[";
  bool first = true;
  auto open = [&](const char* op, const char* table) {
    body += first ? "{\"op\":\"" : ",{\"op\":\"";
    first = false;
    body += op;
    body += "\",\"table\":\"";
    body += table;
    body += '"';
  };
  auto insert = [&](const char* table, const std::string& a,
                    const std::string& c) {
    open("insert", table);
    body += ",\"values\":[";
    banks::JsonAppendQuoted(&body, a);
    body += ',';
    banks::JsonAppendQuoted(&body, c);
    body += "]}";
    batch.mutations.push_back(
        Mutation::Insert(table, Tuple({Value(a), Value(c)})));
  };
  auto erase = [&](const char* table, uint32_t table_id, uint32_t row) {
    open("delete", table);
    body += ",\"row\":" + std::to_string(row) + '}';
    batch.mutations.push_back(Mutation::Delete(Rid{table_id, row}));
  };

  for (size_t k = 0; k < kPapersPerBatch; ++k) {
    std::string pid = "NP" + std::to_string(b * kPapersPerBatch + k);
    insert(banks::kPaperTable, pid, Title(&state));
    size_t a1 = rng.Uniform(author_ids_.size());
    size_t a2 = rng.Uniform(author_ids_.size() - 1);
    if (a2 >= a1) ++a2;
    insert(banks::kWritesTable, author_ids_[a1], pid);
    insert(banks::kWritesTable, author_ids_[a2], pid);
    insert(banks::kCitesTable, pid,
           base_paper_ids_[rng.Uniform(base_paper_ids_.size())]);
  }
  const size_t updates =
      b >= 2 ? kUpdatesPerBatch : kUpdatesPerBatch + kDeletesPerBatch;
  for (size_t u = 0; u < updates; ++u) {
    uint32_t row = static_cast<uint32_t>(rng.Uniform(base_papers_));
    std::string title = Title(&state);
    open("update", banks::kPaperTable);
    body += ",\"row\":" + std::to_string(row) +
            ",\"column\":\"PaperName\",\"value\":";
    banks::JsonAppendQuoted(&body, title);
    body += '}';
    batch.mutations.push_back(Mutation::Update(Rid{paper_table_, row},
                                               "PaperName", Value(title)));
  }
  if (b >= 2) {
    // The link rows batch b-2 inserted: every Cites row and each paper's
    // first Writes row.
    const size_t old = b - 2;
    for (size_t k = 0; k < kPapersPerBatch; ++k) {
      erase(banks::kCitesTable, cites_table_,
            base_cites_ + static_cast<uint32_t>(old * kPapersPerBatch + k));
      erase(banks::kWritesTable, writes_table_,
            base_writes_ +
                static_cast<uint32_t>(old * 2 * kPapersPerBatch + 2 * k));
    }
  }
  body += "]}";
  return batch;
}

std::vector<Query> MutationGen::ReaderQueries(size_t count) const {
  Rng rng(seed_ ^ 0x27d4eb2f165667c5ull);
  std::vector<Query> out;
  std::unordered_set<std::string> seen;
  while (out.size() < count) {
    Query q;
    if (rng.Bernoulli(0.5)) {
      q.text = author_names_[rng.Uniform(author_names_.size())] + " " +
               words_[rng.Uniform(words_.size())];
      q.form = Form::kAuthorTitle;
    } else {
      size_t i = rng.Uniform(words_.size());
      size_t j = rng.Uniform(words_.size() - 1);
      if (j >= i) ++j;
      q.text = words_[i] + " " + words_[j];
      q.form = Form::kTitleWords;
    }
    if (seen.insert(q.text).second) out.push_back(std::move(q));
  }
  return out;
}

}  // namespace perfbench
