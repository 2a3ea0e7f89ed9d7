// Seeded input generation for the serving benchmark: the dataset, the
// query streams of the three workloads and the writer's mutation stream.
// Every function here is a pure function of its arguments; nothing reads a
// clock, so the same seed always gives byte-identical inputs.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "datagen/dblp_gen.h"
#include "update/mutation.h"

namespace perfbench {

/// The §5.2 scale: 12K authors and 20K papers, ~98K nodes. The numbers
/// mirror bench/bench_common.h's PaperScaleDblpConfig and are repeated
/// here so the benchmark's inputs cannot drift with that header.
banks::DblpConfig DatasetConfig(uint64_t seed);

/// Request classes. The cold mix is fixed per block of kBlock queries, so
/// every class share is exact and no reported percentile sits on a class
/// boundary (see README.md, "Steadiness").
enum class Form {
  kCoauthors,     // light: two coauthors' surnames
  kAuthorTitle,   // light: an author's surname + a word of one of their titles
  kTitleWords,    // light: two words of one title
  kPlantedTitle,  // planted anecdote name + a word of one of their titles
  kHeavy,         // metadata term ("author <surname>") or a §5.1 pair
};
inline constexpr int kNumForms = 5;
const char* FormName(Form form);
/// FormName of every Form, indexed by its value.
std::vector<std::string> FormNames();

struct Query {
  std::string text;
  Form form = Form::kCoauthors;
};

/// Per block of kBlock cold queries: kLightPerBlock light (spread evenly
/// over the three light forms) and kPlantedPerBlock planted in seeded
/// order, and kHeavyPerBlock heavy at evenly spaced fixed slots.
inline constexpr size_t kBlock = 20;
inline constexpr size_t kLightPerBlock = 16;
inline constexpr size_t kPlantedPerBlock = 3;
inline constexpr size_t kHeavyPerBlock = 1;

/// Size of hot's cached query set.
inline constexpr size_t kHotSetSize = 64;
/// Size of ingest's reader query set.
inline constexpr size_t kReaderSetSize = 48;

/// Draws queries from the dataset; all draws are distinct from each other
/// across every call on the same generator.
class QueryGen {
 public:
  QueryGen(const banks::DblpDataset& ds, uint64_t seed);

  /// `count` distinct cold queries in the block mix above.
  std::vector<Query> Cold(size_t count);

  /// `count` distinct light or planted queries (no heavy tail).
  std::vector<Query> Light(size_t count);

 private:
  struct Author {
    std::string surname;
    std::vector<uint32_t> papers;  // indexes into titles_
  };
  bool Draw(Form form, std::string* text);
  std::string TitleWord(uint32_t paper);
  bool Emit(Form form, std::vector<Query>* out);

  uint64_t state_;
  std::vector<Author> authors_;
  std::vector<std::vector<std::string>> titles_;  // tokenized paper titles
  std::vector<std::vector<uint32_t>> paper_authors_;
  std::vector<uint32_t> planted_;  // indexes into authors_
  std::vector<std::string> heavy_pool_;
  std::unordered_set<std::string> seen_;
  size_t next_heavy_ = 0;
  size_t next_planted_ = 0;  // planted authors take turns
};

/// `count` indexes into a set of `n` items, Zipf-distributed with s = 1.
std::vector<uint32_t> ZipfStream(size_t n, size_t count, uint64_t seed);

/// One POST /mutate batch: the JSON body and the same mutations as engine
/// values (for in-process replay and for the final-state oracle).
struct Batch {
  std::string body;
  std::vector<banks::Mutation> mutations;
};

/// The writer's mutation stream over a dataset: new papers with Writes and
/// Cites links, title updates of base papers and deletes of the link rows
/// inserted two batches earlier. Fixed size per batch. Row numbers of
/// inserts are predicted from the base table sizes (tables are
/// append-only), so the stream is fully determined before it is sent.
class MutationGen {
 public:
  static constexpr size_t kPapersPerBatch = 64;  // + 128 Writes + 64 Cites
  static constexpr size_t kUpdatesPerBatch = 128;
  static constexpr size_t kDeletesPerBatch = 128;  // 64 Cites + 64 Writes
  static constexpr size_t kBatchSize = 4 * kPapersPerBatch +
                                       kUpdatesPerBatch + kDeletesPerBatch;

  MutationGen(const banks::DblpDataset& ds, uint64_t seed);

  /// Batch number `b` of the stream (deterministic in b and the seed).
  Batch Make(size_t b) const;

  /// Reader queries over the terms the writer touches: surnames of the
  /// writer's authors and the words it writes into titles.
  std::vector<Query> ReaderQueries(size_t count) const;

 private:
  std::string Title(uint64_t* state) const;

  uint64_t seed_;
  uint32_t paper_table_ = 0, writes_table_ = 0, cites_table_ = 0;
  uint32_t base_papers_ = 0, base_writes_ = 0, base_cites_ = 0;
  std::vector<std::string> author_ids_;    // the writer's authors
  std::vector<std::string> author_names_;  // their surnames
  std::vector<std::string> words_;         // the writer's title words
  std::vector<std::string> base_paper_ids_;
};

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
