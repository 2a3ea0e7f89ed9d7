// Pinned answers across commits. The other oracles compare two paths of
// one build (serial vs pool, cache on vs off, stream vs drain), so a change
// that alters emission order or tree shape on every path at once passes
// them all. This test runs a fixed query set on a seeded DBLP dataset under
// all three strategies, once on the frozen epoch and once over a pending
// overlay, and compares a digest of each run with the value pinned below.
//
// A run's digest covers, per answer: the rank, the root, leaf_for_term,
// every edge with the bit pattern of its weight, and the bit pattern of the
// relevance; then the run's iterator_visits and num_iterators. When a
// change is meant to alter answers, the failure prints the whole table in
// this file's format: review the differences, then paste it over kPinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/banks.h"
#include "datagen/dblp_gen.h"
#include "eval/workload.h"
#include "index/tokenizer.h"
#include "util/rng.h"

namespace banks {
namespace {

struct Pinned {
  const char* key;  // "<epoch>/<strategy>/<query>"
  uint64_t digest;
};

constexpr Pinned kPinned[] = {
    {"frozen/backward/author soumen", 0x21d4f8c503c1acafull},
    {"frozen/forward/author soumen", 0x3810baab6b54999dull},
    {"frozen/bidirectional/author soumen", 0xe480ed1779295ab1ull},
    {"frozen/backward/author mohan", 0x36cc1ef7a76dd91dull},
    {"frozen/forward/author mohan", 0xd181f28d6f292469ull},
    {"frozen/bidirectional/author mohan", 0x26977e40f96a7a92ull},
    {"frozen/backward/paper transaction", 0xbbb6680b572e8423ull},
    {"frozen/forward/paper transaction", 0x0c12788e7076f20bull},
    {"frozen/bidirectional/paper transaction", 0x28e43366e7257d2bull},
    {"frozen/backward/author sunita paper", 0x4e78c023f6355f37ull},
    {"frozen/forward/author sunita paper", 0xa2d0160acb4e7771ull},
    {"frozen/bidirectional/author sunita paper", 0x09b7de480bdfcb11ull},
    {"frozen/backward/soumen sunita", 0x32f1132d515b9ed5ull},
    {"frozen/forward/soumen sunita", 0x911ddbdf476cf888ull},
    {"frozen/bidirectional/soumen sunita", 0x32f1132d515b9ed5ull},
    {"frozen/backward/seltzer sunita", 0x62ad23d3bd3bbe06ull},
    {"frozen/forward/seltzer sunita", 0xa4ea6fe17b98e43eull},
    {"frozen/bidirectional/seltzer sunita", 0x62ad23d3bd3bbe06ull},
    {"frozen/backward/brown yang", 0x5b86245d9fa435c6ull},
    {"frozen/forward/brown yang", 0x1e6b23bde292a13dull},
    {"frozen/bidirectional/brown yang", 0x5b86245d9fa435c6ull},
    {"frozen/backward/smith adaptive", 0x030830c3d0b7c668ull},
    {"frozen/forward/smith adaptive", 0x0af909074d2bf477ull},
    {"frozen/bidirectional/smith adaptive", 0xc00e4352cb45cff8ull},
    {"frozen/backward/selectivity logging", 0xa5c3694d1816082full},
    {"frozen/forward/selectivity logging", 0x95e7fc54f5489a1dull},
    {"frozen/bidirectional/selectivity logging", 0x9d6ee43de5978e1eull},
    {"frozen/backward/wilson petrov", 0x96e4eaa809dc7932ull},
    {"frozen/forward/wilson petrov", 0x634ba3a7c11be20full},
    {"frozen/bidirectional/wilson petrov", 0x96e4eaa809dc7932ull},
    {"frozen/backward/tran warehouse", 0xde3a5edba0b9f0c6ull},
    {"frozen/forward/tran warehouse", 0x4b56d600a7a61a22ull},
    {"frozen/bidirectional/tran warehouse", 0x3850748cde777523ull},
    {"frozen/backward/storage database", 0x66850d5def51db3cull},
    {"frozen/forward/storage database", 0x2e59434e38b3e4ddull},
    {"frozen/bidirectional/storage database", 0x0010df04de6c1052ull},
    {"frozen/backward/widom astrahan", 0x2fe7b64053637565ull},
    {"frozen/forward/widom astrahan", 0x45866eb78181e39aull},
    {"frozen/bidirectional/widom astrahan", 0x2fe7b64053637565ull},
    {"frozen/backward/martinez crawling", 0x6ca387e9a16dff1full},
    {"frozen/forward/martinez crawling", 0x386b7503807182eeull},
    {"frozen/bidirectional/martinez crawling", 0xddbfb62dca5471beull},
    {"frozen/backward/stream relational", 0x3523435940857ec4ull},
    {"frozen/forward/stream relational", 0xe77285c5f813146bull},
    {"frozen/bidirectional/stream relational", 0x90b5dd70b2ff65d2ull},
    {"frozen/backward/bernstein gonzalez", 0xf56d5df4d57b57cdull},
    {"frozen/forward/bernstein gonzalez", 0xbc57d20467f4daaaull},
    {"frozen/bidirectional/bernstein gonzalez", 0xf56d5df4d57b57cdull},
    {"frozen/backward/tran distributed", 0x6474ea424d44d029ull},
    {"frozen/forward/tran distributed", 0x956744c0a5a3e5deull},
    {"frozen/bidirectional/tran distributed", 0xab2ae0c6f4236b19ull},
    {"frozen/backward/mining clustering", 0x32439e12f9e4b5c7ull},
    {"frozen/forward/mining clustering", 0xeab8fbe53a46395cull},
    {"frozen/bidirectional/mining clustering", 0x512ec94ebb8b4c8aull},
    {"frozen/backward/liu petrov", 0xdc1b6685ff238e5dull},
    {"frozen/forward/liu petrov", 0xfb6dfb511a8f6438ull},
    {"frozen/bidirectional/liu petrov", 0xdc1b6685ff238e5dull},
    {"frozen/backward/widom benchmark", 0xc7eb5620aeed5b22ull},
    {"frozen/forward/widom benchmark", 0xf641843e7ea11c46ull},
    {"frozen/bidirectional/widom benchmark", 0xc96d9afec3518995ull},
    {"frozen/backward/estimation hypertext", 0x450627c7de53691eull},
    {"frozen/forward/estimation hypertext", 0x5a7677984a9ed752ull},
    {"frozen/bidirectional/estimation hypertext", 0x4f1d6216666b2ee4ull},
    {"frozen/backward/petrov bernstein", 0x81d0858b17274409ull},
    {"frozen/forward/petrov bernstein", 0x254ddc89feb5a16full},
    {"frozen/bidirectional/petrov bernstein", 0x81d0858b17274409ull},
    {"frozen/backward/gupta estimation", 0x09eaed8216531226ull},
    {"frozen/forward/gupta estimation", 0xd7c113e7b914a76bull},
    {"frozen/bidirectional/gupta estimation", 0x3ee14ad93d51e01aull},
    {"frozen/backward/keyword join", 0x038ab37941c59fd8ull},
    {"frozen/forward/keyword join", 0xb3a5739da4f1fb60ull},
    {"frozen/bidirectional/keyword join", 0xe7996f4ad6e73e75ull},
    {"frozen/backward/bernstein petrov", 0x67a1d2cf7b442338ull},
    {"frozen/forward/bernstein petrov", 0x2bc1890ab64ce876ull},
    {"frozen/bidirectional/bernstein petrov", 0x67a1d2cf7b442338ull},
    {"frozen/backward/mueller clustering", 0x2deff15c7c32cbd0ull},
    {"frozen/forward/mueller clustering", 0x450530af7fbd216eull},
    {"frozen/bidirectional/mueller clustering", 0xee3f3c92735c853aull},
    {"frozen/backward/approximate database", 0x71b885ceda49312eull},
    {"frozen/forward/approximate database", 0xfac7e4a6476b4d3bull},
    {"frozen/bidirectional/approximate database", 0x4c2788d872e330a9ull},
    {"overlay/backward/author soumen", 0xfa3e75b929e57fb7ull},
    {"overlay/forward/author soumen", 0xa1c90fd1fb02b4a5ull},
    {"overlay/bidirectional/author soumen", 0xcbcd3946981c6b05ull},
    {"overlay/backward/author mohan", 0xf4f544a7994fd560ull},
    {"overlay/forward/author mohan", 0x52a0921405d1311cull},
    {"overlay/bidirectional/author mohan", 0xb3c2d3bbd64d7eefull},
    {"overlay/backward/paper transaction", 0xe1efc9c8f67bd999ull},
    {"overlay/forward/paper transaction", 0x51f9219bc81e7896ull},
    {"overlay/bidirectional/paper transaction", 0xf4317e7d9fc02280ull},
    {"overlay/backward/author sunita paper", 0x1d18452062a7c5e0ull},
    {"overlay/forward/author sunita paper", 0x1eca60a8ae288921ull},
    {"overlay/bidirectional/author sunita paper", 0x0cf96c6c16d650d9ull},
    {"overlay/backward/soumen sunita", 0x8d47811740f83a73ull},
    {"overlay/forward/soumen sunita", 0xd92eb16f47deb9efull},
    {"overlay/bidirectional/soumen sunita", 0x8d47811740f83a73ull},
    {"overlay/backward/seltzer sunita", 0x7ac438c611d605edull},
    {"overlay/forward/seltzer sunita", 0x9becb4892c57cb15ull},
    {"overlay/bidirectional/seltzer sunita", 0x7ac438c611d605edull},
    {"overlay/backward/brown yang", 0x5b86245d9fa435c6ull},
    {"overlay/forward/brown yang", 0x645cbaa95cacb9d1ull},
    {"overlay/bidirectional/brown yang", 0x5b86245d9fa435c6ull},
    {"overlay/backward/smith adaptive", 0x030830c3d0b7c668ull},
    {"overlay/forward/smith adaptive", 0x0af909074d2bf477ull},
    {"overlay/bidirectional/smith adaptive", 0x41725d59e21ba0bbull},
    {"overlay/backward/selectivity logging", 0xa5c3694d1816082full},
    {"overlay/forward/selectivity logging", 0x5f43727bf09b62a7ull},
    {"overlay/bidirectional/selectivity logging", 0x9d6ee43de5978e1eull},
    {"overlay/backward/wilson petrov", 0x96e4eaa809dc7932ull},
    {"overlay/forward/wilson petrov", 0xa0c28ac7657484d6ull},
    {"overlay/bidirectional/wilson petrov", 0x96e4eaa809dc7932ull},
    {"overlay/backward/tran warehouse", 0x5848f97406c6ccbeull},
    {"overlay/forward/tran warehouse", 0x34ef93254055da8cull},
    {"overlay/bidirectional/tran warehouse", 0xd2b04cdf524a6e19ull},
    {"overlay/backward/storage database", 0x66850d5def51db3cull},
    {"overlay/forward/storage database", 0x17f20072d163a547ull},
    {"overlay/bidirectional/storage database", 0x0010df04de6c1052ull},
    {"overlay/backward/widom astrahan", 0x2fe7b64053637565ull},
    {"overlay/forward/widom astrahan", 0x68a420e7bd87292dull},
    {"overlay/bidirectional/widom astrahan", 0x2fe7b64053637565ull},
    {"overlay/backward/martinez crawling", 0x6ca387e9a16dff1full},
    {"overlay/forward/martinez crawling", 0x386b7503807182eeull},
    {"overlay/bidirectional/martinez crawling", 0xddbfb62dca5471beull},
    {"overlay/backward/stream relational", 0x3523435940857ec4ull},
    {"overlay/forward/stream relational", 0x236adce64467756full},
    {"overlay/bidirectional/stream relational", 0x90b5dd70b2ff65d2ull},
    {"overlay/backward/bernstein gonzalez", 0xf56d5df4d57b57cdull},
    {"overlay/forward/bernstein gonzalez", 0xbc57d20467f4daaaull},
    {"overlay/bidirectional/bernstein gonzalez", 0xf56d5df4d57b57cdull},
    {"overlay/backward/tran distributed", 0x158c474efde9e1a3ull},
    {"overlay/forward/tran distributed", 0xd15f9be0f1f846e2ull},
    {"overlay/bidirectional/tran distributed", 0x7377742c8b66d660ull},
    {"overlay/backward/mining clustering", 0x32439e12f9e4b5c7ull},
    {"overlay/forward/mining clustering", 0xc80852d2f3ea65a1ull},
    {"overlay/bidirectional/mining clustering", 0x512ec94ebb8b4c8aull},
    {"overlay/backward/liu petrov", 0xdc1b6685ff238e5dull},
    {"overlay/forward/liu petrov", 0xd47899ca5e85edafull},
    {"overlay/bidirectional/liu petrov", 0xdc1b6685ff238e5dull},
    {"overlay/backward/widom benchmark", 0xc7eb5620aeed5b22ull},
    {"overlay/forward/widom benchmark", 0xd60f2b1f03b6b66full},
    {"overlay/bidirectional/widom benchmark", 0xc96d9afec3518995ull},
    {"overlay/backward/estimation hypertext", 0x450627c7de53691eull},
    {"overlay/forward/estimation hypertext", 0x5a7677984a9ed752ull},
    {"overlay/bidirectional/estimation hypertext", 0x4f1d6216666b2ee4ull},
    {"overlay/backward/petrov bernstein", 0x81d0858b17274409ull},
    {"overlay/forward/petrov bernstein", 0x254ddc89feb5a16full},
    {"overlay/bidirectional/petrov bernstein", 0x81d0858b17274409ull},
    {"overlay/backward/gupta estimation", 0x09eaed8216531226ull},
    {"overlay/forward/gupta estimation", 0xd7c113e7b914a76bull},
    {"overlay/bidirectional/gupta estimation", 0x3ee14ad93d51e01aull},
    {"overlay/backward/keyword join", 0x038ab37941c59fd8ull},
    {"overlay/forward/keyword join", 0x72594f3610f670ceull},
    {"overlay/bidirectional/keyword join", 0xe7996f4ad6e73e75ull},
    {"overlay/backward/bernstein petrov", 0x67a1d2cf7b442338ull},
    {"overlay/forward/bernstein petrov", 0x2bc1890ab64ce876ull},
    {"overlay/bidirectional/bernstein petrov", 0x67a1d2cf7b442338ull},
    {"overlay/backward/mueller clustering", 0x2deff15c7c32cbd0ull},
    {"overlay/forward/mueller clustering", 0x2e9dedd4186ce1d8ull},
    {"overlay/bidirectional/mueller clustering", 0xee3f3c92735c853aull},
    {"overlay/backward/approximate database", 0x71b885ceda49312eull},
    {"overlay/forward/approximate database", 0x993e79411612cac9ull},
    {"overlay/bidirectional/approximate database", 0x4c2788d872e330a9ull},
};

/// 64-bit FNV-1a over little-endian words.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

uint64_t Digest(const QueryResult& result) {
  Fnv h;
  h.Add(result.answers.size());
  for (size_t rank = 0; rank < result.answers.size(); ++rank) {
    const ConnectionTree& tree = result.answers[rank];
    h.Add(rank);
    h.Add(tree.root);
    h.Add(tree.leaf_for_term.size());
    for (NodeId leaf : tree.leaf_for_term) h.Add(leaf);
    h.Add(tree.edges.size());
    for (const TreeEdge& e : tree.edges) {
      h.Add(e.from);
      h.Add(e.to);
      h.Add(std::bit_cast<uint64_t>(e.weight));
    }
    h.Add(std::bit_cast<uint64_t>(tree.relevance));
  }
  h.Add(result.stats.iterator_visits);
  h.Add(result.stats.num_iterators);
  return h.value();
}

/// bench_bidirectional's dataset.
DblpConfig DigestConfig() {
  DblpConfig config;
  config.seed = 42;
  config.num_authors = 2'000;
  config.num_papers = 4'000;
  return config;
}

std::vector<std::string> DistinctTokens(const std::string& text) {
  std::vector<std::string> out;
  for (std::string& t : Tokenize(text)) {
    if (std::find(out.begin(), out.end(), t) == out.end()) {
      out.push_back(std::move(t));
    }
  }
  return out;
}

/// 21 two-term queries in the three light forms of perfbench's `cold`
/// workload, taking turns: two coauthors' surnames, an author's surname
/// with a word of one of their titles, and two words of one title.
std::vector<std::string> LightQueries(const Database& db) {
  const Table* authors = db.table(kAuthorTable);
  const Table* papers = db.table(kPaperTable);
  const Table* writes = db.table(kWritesTable);
  std::unordered_map<std::string, std::string> surname;  // AuthorId ->
  for (const Tuple& row : authors->rows()) {
    std::vector<std::string> tokens = Tokenize(row.at(1).ToText());
    surname[row.at(0).ToText()] = tokens.empty() ? "" : tokens.back();
  }
  std::unordered_map<std::string, size_t> paper_row;
  for (size_t p = 0; p < papers->num_rows(); ++p) {
    paper_row[papers->row(p).at(0).ToText()] = p;
  }
  std::vector<std::vector<std::string>> paper_authors(papers->num_rows());
  for (const Tuple& row : writes->rows()) {
    paper_authors[paper_row.at(row.at(1).ToText())].push_back(
        surname.at(row.at(0).ToText()));
  }

  Rng rng(2024);
  std::vector<std::string> out;
  std::set<std::string> seen;
  while (out.size() < 21) {
    const size_t p = rng.Uniform(papers->num_rows());
    const std::vector<std::string>& as = paper_authors[p];
    const std::vector<std::string> words =
        DistinctTokens(papers->row(p).at(1).ToText());
    std::string text;
    switch (out.size() % 3) {
      case 0:
        if (as.size() >= 2 && !as[0].empty() && !as[1].empty() &&
            as[0] != as[1]) {
          text = as[0] + " " + as[1];
        }
        break;
      case 1:
        if (!as.empty() && !as[0].empty() && !words.empty()) {
          const std::string& w = words[rng.Uniform(words.size())];
          if (w != as[0]) text = as[0] + " " + w;
        }
        break;
      default:
        if (words.size() >= 2) {
          const size_t i = rng.Uniform(words.size());
          size_t j = rng.Uniform(words.size() - 1);
          if (j >= i) ++j;
          text = words[i] + " " + words[j];
        }
        break;
    }
    if (!text.empty() && seen.insert(text).second) out.push_back(text);
  }
  return out;
}

/// One burst that reaches the pinned queries: a paper by Soumen and Seltzer
/// citing the Gray classic, one deleted Writes row and one rewritten title.
std::vector<Mutation> OverlayBatch(const Database& db,
                                   const DblpPlanted& planted) {
  std::vector<Mutation> batch;
  batch.push_back(Mutation::Insert(
      kPaperTable, Tuple({Value(std::string("P_digest")),
                          Value(std::string("Sunita transaction paper"))})));
  for (const std::string* author : {&planted.soumen, &planted.seltzer}) {
    batch.push_back(Mutation::Insert(
        kWritesTable,
        Tuple({Value(*author), Value(std::string("P_digest"))})));
  }
  batch.push_back(Mutation::Insert(
      kCitesTable, Tuple({Value(std::string("P_digest")),
                          Value(planted.gray_transaction_paper)})));
  batch.push_back(Mutation::Delete(Rid{db.table(kWritesTable)->id(), 0}));
  batch.push_back(Mutation::Update(Rid{db.table(kPaperTable)->id(), 7},
                                   "PaperName",
                                   Value(std::string("Mohan author index"))));
  return batch;
}

TEST(AnswerDigestTest, AnswersMatchPinnedDigests) {
  DblpDataset ds = GenerateDblp(DigestConfig());
  const DblpPlanted planted = ds.planted;
  // As banks_server runs queries: approximate and partial matching on.
  BanksOptions options = EvalWorkload::DefaultOptions();
  options.match.approx.enable = true;
  options.allow_partial_match = true;
  BanksEngine engine(std::move(ds.db), options);

  std::vector<std::string> queries = {
      "author soumen",       "author mohan",  "paper transaction",
      "author sunita paper", "soumen sunita", "seltzer sunita"};
  for (std::string& q : LightQueries(engine.db())) queries.push_back(q);

  // Keys in run order, so the first mismatch reported is the first run.
  std::vector<std::pair<std::string, uint64_t>> actual;
  auto run_all = [&](const char* epoch) {
    for (const std::string& q : queries) {
      for (SearchStrategy strategy :
           {SearchStrategy::kBackward, SearchStrategy::kForward,
            SearchStrategy::kBidirectional}) {
        SearchOptions search = engine.options().search;
        search.strategy = strategy;
        auto result = engine.Search({.text = q, .search = search});
        ASSERT_TRUE(result.ok()) << q << ": " << result.status().ToString();
        actual.emplace_back(std::string(epoch) + "/" +
                                SearchStrategyName(strategy) + "/" + q,
                            Digest(result.value()));
      }
    }
  };
  run_all("frozen");
  for (const auto& applied :
       engine.ApplyBatch(OverlayBatch(engine.db(), planted))) {
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }
  ASSERT_GT(engine.pending_mutations(), 0u);
  run_all("overlay");

  // The overlay must reach some query, or its half of the table pins
  // nothing the frozen half does not.
  const size_t half = actual.size() / 2;
  size_t changed = 0;
  for (size_t i = 0; i < half; ++i) {
    changed += actual[i].second != actual[half + i].second;
  }
  EXPECT_GT(changed, 0u) << "the overlay batch changed no answer";

  std::map<std::string, uint64_t> pinned;
  for (const Pinned& p : kPinned) pinned[p.key] = p.digest;
  std::string first_mismatch;
  for (const auto& [key, digest] : actual) {
    auto it = pinned.find(key);
    if (it == pinned.end() || it->second != digest) {
      first_mismatch = key;
      break;
    }
  }
  if (first_mismatch.empty() && pinned.size() == actual.size()) return;

  std::string table;
  char line[64];
  for (const auto& [key, digest] : actual) {
    std::snprintf(line, sizeof(line), "0x%016llxull},\n",
                  static_cast<unsigned long long>(digest));
    table += "    {\"" + key + "\", " + line;
  }
  ADD_FAILURE() << "first run that differs: "
                << (first_mismatch.empty() ? "(none; the table sizes differ)"
                                           : first_mismatch)
                << " (" << actual.size() << " runs, " << pinned.size()
                << " pinned)\nthe digests of this build:\n"
                << table;
}

}  // namespace
}  // namespace banks
