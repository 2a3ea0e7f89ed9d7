// Expansion oracle: ExpandKeyword over the sorted vocabulary (a lower_bound
// range for prefixes, an implicit-trie walk for edit distance) against the
// full scan it replaced, which is kept below as the reference. Also checks
// the sorted index layout itself (Lookup, KeywordsWithPrefix, num_postings)
// against a hash-map reference after Build, after a merge-refreeze patch and
// after a snapshot round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/banks.h"
#include "datagen/dblp_gen.h"
#include "index/approx_match.h"
#include "index/inverted_index.h"
#include "index/tokenizer.h"
#include "snapshot/snapshot.h"
#include "util/string_util.h"

namespace banks {
namespace {

constexpr int kMaxDistance = 3;  // the largest k under test

// Instrumented builds run the same checks over every tenth probe: the
// sanitizers and -O0 make this code 10-40x slower, and CI's sanitizer legs
// time each test out at 120 s. Optimized builds check every probe.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BANKS_ORACLE_INSTRUMENTED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(NDEBUG)
#define BANKS_ORACLE_INSTRUMENTED 1
#endif
#ifdef BANKS_ORACLE_INSTRUMENTED
constexpr size_t kProbeStride = 10;
#else
constexpr size_t kProbeStride = 1;
#endif

/// A vocabulary keyword with its edit distance to the probe, capped at
/// kMaxDistance + 1. For every k <= kMaxDistance,
/// BoundedEditDistance(probe, kw, k) == min(distance, k + 1), so one scan
/// per probe serves every option combination.
struct Scored {
  std::string_view kw;
  int distance;
};

/// The full-scan expansion the sorted layout replaced: every keyword of
/// the vocabulary (base plus delta) is ranked by (edit distance, keyword),
/// prefix extensions beyond the bound at k + 1, the exact keyword first.
/// Returned uncapped: max_expansions truncates this list.
std::vector<std::string> ReferenceRanking(const std::vector<Scored>& scored,
                                          bool exact,
                                          const std::string& keyword, int k,
                                          bool allow_prefix) {
  std::vector<std::string> out;
  if (keyword.empty()) return out;
  if (exact) out.push_back(keyword);

  struct Cand {
    int dist;
    std::string_view kw;
    bool operator<(const Cand& o) const {
      return dist != o.dist ? dist < o.dist : kw < o.kw;
    }
  };
  std::vector<Cand> cands;
  for (const auto& [kw, distance] : scored) {
    if (kw == keyword) continue;
    const int d = std::min(distance, k + 1);
    const bool prefix_hit = allow_prefix && kw.size() > keyword.size() &&
                            StartsWith(kw, keyword);
    if (d <= k) {
      cands.push_back(Cand{d, kw});
    } else if (prefix_hit) {
      cands.push_back(Cand{k + 1, kw});
    }
  }
  std::sort(cands.begin(), cands.end());
  for (const auto& c : cands) out.emplace_back(c.kw);
  return out;
}

/// The reference vocabulary: base keywords plus `extra`, deduplicated.
struct Vocabulary {
  std::vector<std::string> words;
  std::unordered_set<std::string> set;

  Vocabulary(const InvertedIndex& index, std::span<const std::string> extra) {
    for (size_t i = 0; i < index.num_keywords(); ++i) {
      set.emplace(index.keyword(i));
    }
    set.insert(extra.begin(), extra.end());
    words.assign(set.begin(), set.end());
  }
};

/// Compares both expansions for `probe` under every option combination
/// under test; returns the number of mismatches (reporting the first few).
int CompareExpansions(const InvertedIndex& index,
                      std::span<const std::string> extra,
                      const Vocabulary& vocab, const std::string& probe) {
  const std::string keyword = NormalizeKeyword(probe);
  // Keywords beyond kMaxDistance that do not extend the probe are never a
  // candidate under any option tested; the reference skips them anyway.
  std::vector<Scored> scored;
  for (const auto& kw : vocab.words) {
    const int d = BoundedEditDistance(keyword, kw, kMaxDistance);
    if (d <= kMaxDistance || StartsWith(kw, keyword)) {
      scored.push_back(Scored{kw, d});
    }
  }
  const bool exact = vocab.set.count(keyword) > 0;
  int mismatches = 0;
  for (int k = 0; k <= kMaxDistance; ++k) {
    for (const bool prefix : {false, true}) {
      const std::vector<std::string> ranking =
          ReferenceRanking(scored, exact, keyword, k, prefix);
      for (const size_t cap : {size_t{1}, size_t{8}}) {
        const ApproxMatchOptions opts{.enable = true,
                                      .max_edit_distance = k,
                                      .allow_prefix = prefix,
                                      .max_expansions = cap};
        const auto got = ExpandKeyword(index, extra, probe, opts);
        const std::vector<std::string> want(
            ranking.begin(),
            ranking.begin() +
                static_cast<ptrdiff_t>(std::min(cap, ranking.size())));
        if (got != want) {
          ++mismatches;
          ADD_FAILURE_AT(__FILE__, __LINE__)
              << "probe '" << probe << "' k=" << k << " prefix=" << prefix
              << " cap=" << cap << ": got [" << Join(got, ",")
              << "] want [" << Join(want, ",") << "]";
          if (mismatches >= 5) return mismatches;
        }
      }
    }
  }
  return mismatches;
}

/// One random single-character edit of `kw` (insert, delete or substitute).
std::string RandomEdit(const std::string& kw, std::mt19937* rng) {
  static constexpr std::string_view kAlphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789";
  const char c = kAlphabet[(*rng)() % kAlphabet.size()];
  std::string out = kw;
  const size_t pos = (*rng)() % (kw.size() + 1);
  switch ((*rng)() % 3) {
    case 0:
      out.insert(out.begin() + static_cast<ptrdiff_t>(pos), c);
      break;
    case 1:
      if (pos < out.size()) out.erase(pos, 1);
      break;
    default:
      if (pos < out.size()) out[pos] = c;
      break;
  }
  return out.empty() ? kw : out;
}

/// `kw`, one random edit of it and one proper prefix of it.
std::vector<std::string> ProbesFor(const std::string& kw, std::mt19937* rng) {
  std::vector<std::string> probes = {kw, RandomEdit(kw, rng)};
  if (kw.size() > 1) {
    probes.push_back(kw.substr(0, 1 + (*rng)() % (kw.size() - 1)));
  }
  return probes;
}

std::vector<std::string> AllKeywords(const InvertedIndex& index) {
  std::vector<std::string> out;
  out.reserve(index.num_keywords());
  for (size_t i = 0; i < index.num_keywords(); ++i) {
    out.emplace_back(index.keyword(i));
  }
  return out;
}

DblpConfig SmallConfig() {
  DblpConfig config;
  config.num_authors = 500;
  config.num_papers = 900;
  config.seed = 5;
  return config;
}

TEST(ExpansionOracle, EveryKeywordEditAndPrefixOfADblpVocabulary) {
  const DblpDataset ds = GenerateDblp(SmallConfig());
  InvertedIndex index;
  index.Build(ds.db);
  ASSERT_GE(index.num_keywords(), 1000u);
  const Vocabulary vocab(index, {});
  std::mt19937 rng(19);
  const std::vector<std::string> keywords = AllKeywords(index);
  int mismatches = 0;
  for (size_t i = 0; i < keywords.size(); i += kProbeStride) {
    for (const auto& probe : ProbesFor(keywords[i], &rng)) {
      mismatches += CompareExpansions(index, {}, vocab, probe);
      ASSERT_LT(mismatches, 5);
    }
  }
}

TEST(ExpansionOracle, SampleOfThePaperScaleVocabulary) {
  // The §5.2 scale: 12K authors, 20K papers.
  DblpConfig config;
  config.num_authors = 12'000;
  config.num_papers = 20'000;
  config.authors_per_paper_mean = 2.2;
  config.cites_per_paper_mean = 1.2;
  config.seed = 11;
  const DblpDataset ds = GenerateDblp(config);
  InvertedIndex index;
  index.Build(ds.db);
  ASSERT_GE(index.num_keywords(), 10'000u);
  const Vocabulary vocab(index, {});
  const std::vector<std::string> keywords = AllKeywords(index);
  std::mt19937 rng(52);
  int mismatches = 0;
  for (size_t i = 0; i < 1000; i += kProbeStride) {
    const std::string& kw = keywords[rng() % keywords.size()];
    // Cycle the probe kind: the keyword, an edit of it, a prefix of it.
    std::string probe = kw;
    if (i % 3 == 1) probe = RandomEdit(kw, &rng);
    if (i % 3 == 2) probe = kw.substr(0, 1 + rng() % kw.size());
    mismatches += CompareExpansions(index, {}, vocab, probe);
    ASSERT_LT(mismatches, 5);
  }
}

TEST(ExpansionOracle, DeltaOnlyKeywordsExpandWithTheBase) {
  const DblpDataset ds = GenerateDblp(SmallConfig());
  InvertedIndex index;
  index.Build(ds.db);
  // A delta vocabulary mixing fresh near-misses of base keywords, base
  // keywords themselves (a delta row reusing a word) and unrelated words.
  std::mt19937 rng(7);
  const std::vector<std::string> base = AllKeywords(index);
  std::vector<std::string> extra = {"transactiom", "zq", "transaction",
                                    "soumenx", "zzyzxology"};
  for (int i = 0; i < 200; ++i) {
    extra.push_back(RandomEdit(base[rng() % base.size()], &rng));
  }
  std::sort(extra.begin(), extra.end());
  extra.erase(std::unique(extra.begin(), extra.end()), extra.end());
  std::shuffle(extra.begin(), extra.end(), rng);  // the delta is unordered
  const Vocabulary vocab(index, extra);

  int mismatches = 0;
  for (const auto& kw : extra) {
    for (const auto& probe : ProbesFor(kw, &rng)) {
      mismatches += CompareExpansions(index, extra, vocab, probe);
      ASSERT_LT(mismatches, 5);
    }
  }
  // The defect this guards: a delta-only keyword with a base neighbour
  // within distance 1 is its own exact hit, ranked first.
  const ApproxMatchOptions opts{.enable = true};
  ASSERT_FALSE(index.Lookup("transaction").empty());
  ASSERT_TRUE(index.Lookup("transactiom").empty());
  const auto expanded = ExpandKeyword(index, extra, "transactiom", opts);
  ASSERT_FALSE(expanded.empty());
  EXPECT_EQ(expanded[0], "transactiom");
  EXPECT_NE(std::find(expanded.begin(), expanded.end(), "transaction"),
            expanded.end());
  // The base-only form does not see it.
  EXPECT_NE(ExpandKeyword(index, "transactiom", opts)[0], "transactiom");
}

// ------------------------------------------------ layout vs hash-map reference

using ReferenceIndex = std::map<std::string, std::set<Rid>>;

/// What Build indexes: every token of every live string value.
ReferenceIndex ReferenceOf(const Database& db) {
  ReferenceIndex ref;
  for (const auto& name : db.table_names()) {
    if (!name.empty() && name[0] == '_') continue;
    const Table* t = db.table(name);
    for (uint32_t r = 0; r < t->num_rows(); ++r) {
      if (t->IsDeleted(r)) continue;
      for (size_t c = 0; c < t->schema().num_columns(); ++c) {
        if (t->schema().columns()[c].type != ValueType::kString) continue;
        const Value& v = t->row(r).at(c);
        if (v.is_null()) continue;
        for (const auto& tok : Tokenize(v.AsString())) {
          ref[tok].insert(Rid{t->id(), r});
        }
      }
    }
  }
  return ref;
}

void ExpectMatchesReference(const InvertedIndex& index,
                            const ReferenceIndex& ref) {
  ASSERT_EQ(index.num_keywords(), ref.size());
  size_t postings = 0;
  size_t i = 0;
  for (const auto& [kw, rids] : ref) {
    postings += rids.size();
    ASSERT_EQ(index.keyword(i++), kw);
    const auto got = index.Lookup(kw);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), rids.begin(), rids.end()))
        << kw;
  }
  EXPECT_EQ(index.num_postings(), postings);
  ASSERT_EQ(ref.count("qqqxqqq"), 0u);
  EXPECT_TRUE(index.Lookup("qqqxqqq").empty());
  // Prefix ranges: every one- and two-character prefix in the vocabulary.
  std::set<std::string> prefixes = {"", "zzzz"};
  for (const auto& [kw, _] : ref) {
    prefixes.insert(kw.substr(0, 1));
    prefixes.insert(kw.substr(0, 2));
  }
  for (const auto& p : prefixes) {
    std::vector<std::string> want;
    for (auto it = ref.lower_bound(p);
         it != ref.end() && StartsWith(it->first, p); ++it) {
      want.push_back(it->first);
    }
    ASSERT_EQ(index.KeywordsWithPrefix(p), want) << "prefix '" << p << "'";
  }
}

TEST(InvertedIndexLayout, MatchesHashMapReferenceAfterBuildAndPatch) {
  const DblpDataset ds = GenerateDblp(SmallConfig());
  InvertedIndex index;
  index.Build(ds.db);
  ReferenceIndex ref = ReferenceOf(ds.db);
  ExpectMatchesReference(index, ref);

  // A random patch: removals (emptying some lists), additions to existing
  // and to brand-new keywords, and rids both added and removed.
  std::mt19937 rng(3);
  const std::vector<std::string> base = AllKeywords(index);
  InvertedIndex::Patch patch;
  for (int i = 0; i < 300; ++i) {
    std::string kw = base[rng() % base.size()];
    if (i % 3 == 0) kw = RandomEdit(kw, &rng);
    auto& p = patch[kw];
    const Rid rid{static_cast<uint32_t>(rng() % 4),
                  static_cast<uint32_t>(rng() % 50)};
    if (i % 5 == 0) {
      const auto& existing = ref[kw];
      p.remove.assign(existing.begin(), existing.end());  // empties the list
    } else if (i % 2 == 0) {
      p.remove.push_back(rid);
    } else {
      p.add.push_back(rid);
      p.add.push_back(rid);  // duplicates are no-ops
    }
  }
  for (const auto& [kw, p] : patch) {
    auto& rids = ref[kw];
    for (const Rid& r : p.remove) rids.erase(r);
    for (const Rid& r : p.add) rids.insert(r);
    if (rids.empty()) ref.erase(kw);
  }
  const InvertedIndex before = index;
  index.PatchPostings(patch);
  ExpectMatchesReference(index, ref);
  // The copy taken before the patch still reads the old layout.
  ExpectMatchesReference(before, ReferenceOf(ds.db));
}

TEST(InvertedIndexLayout, MatchesHashMapReferenceAfterRefreezeAndSnapshot) {
  BanksEngine engine(GenerateDblp(SmallConfig()).db);
  ExpectMatchesReference(engine.inverted_index(), ReferenceOf(engine.db()));

  // Inserts, deletes and updates, then a merge refreeze patches the index.
  std::vector<Mutation> batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back(Mutation::Insert(
        kPaperTable,
        Tuple({Value("P_oracle" + std::to_string(i)),
               Value("transactiom oracle " + std::to_string(i))})));
  }
  const Table* papers = engine.db().table(kPaperTable);
  ASSERT_NE(papers, nullptr);
  batch.push_back(Mutation::Delete(Rid{papers->id(), 3}));
  batch.push_back(Mutation::Update(Rid{papers->id(), 5}, "PaperName",
                                   Value(std::string("rewritten title"))));
  for (const auto& applied : engine.ApplyBatch(std::move(batch))) {
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }
  auto stats = engine.Refreeze();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.value().merged);
  const ReferenceIndex ref = ReferenceOf(engine.db());
  ExpectMatchesReference(engine.inverted_index(), ref);

  const std::string path = testing::TempDir() + "/expansion_oracle.banks";
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  auto opened = snapshot::OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened.value().state->index->is_view());
  ExpectMatchesReference(*opened.value().state->index, ref);
}

}  // namespace
}  // namespace banks
