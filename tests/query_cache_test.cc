// Epoch-keyed query cache (src/server/query_cache.h): unit tests on the
// cache itself, engine-level integration, an equivalence property test
// (cache-on must be byte-identical to cache-off across epochs of
// randomized mutation bursts with auto-refreeze), and a concurrent
// hit/miss/evict stress suite that rides the TSan CI matrix
// (QueryCacheStress* is part of the sanitizer repeat filter).
//
// Direct Store*/On* calls below are fine: banks_lint confines the cache
// mutation surface to src/server/ + src/update/, with tests/ exempt.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/banks.h"
#include "datagen/dblp_gen.h"
#include "server/query_cache.h"
#include "server/session_pool.h"

namespace banks {
namespace {

using server::CachedAnswers;
using server::CachedResolution;
using server::QueryCache;
using server::QueryCacheStats;

std::vector<std::pair<std::string, double>> TreeKeys(
    const std::vector<ConnectionTree>& answers) {
  std::vector<std::pair<std::string, double>> keys;
  keys.reserve(answers.size());
  for (const auto& t : answers) {
    keys.emplace_back(t.UndirectedSignature(), t.relevance);
  }
  return keys;
}

// --------------------------------------------------------------- keying

TEST(QueryCacheUnit, AnswerKeySensitivity) {
  const ParsedQuery q = ParseQuery("soumen sunita");
  const SearchOptions s;
  const MatchOptions m;
  const std::string base = QueryCache::AnswerKey(q, s, m);
  EXPECT_EQ(base, QueryCache::AnswerKey(ParseQuery("  soumen   sunita "), s, m))
      << "whitespace-equivalent texts must share a key";
  EXPECT_NE(base, QueryCache::AnswerKey(ParseQuery("sunita soumen"), s, m))
      << "term order is part of the parsed query";

  SearchOptions s2 = s;
  s2.max_answers = s.max_answers + 1;
  EXPECT_NE(base, QueryCache::AnswerKey(q, s2, m));
  SearchOptions s3 = s;
  s3.strategy = SearchStrategy::kForward;
  EXPECT_NE(base, QueryCache::AnswerKey(q, s3, m));
  MatchOptions m2 = m;
  m2.approx.enable = !m.approx.enable;
  EXPECT_NE(base, QueryCache::AnswerKey(q, s, m2));
}

TEST(QueryCacheUnit, ResolutionKeySensitivity) {
  const MatchOptions m;
  const QueryTerm a = ParseQuery("soumen").terms[0];
  const QueryTerm b = ParseQuery("sunita").terms[0];
  const QueryTerm c = ParseQuery("authorname:soumen").terms[0];
  EXPECT_EQ(QueryCache::ResolutionKey(a, m), QueryCache::ResolutionKey(a, m));
  EXPECT_NE(QueryCache::ResolutionKey(a, m), QueryCache::ResolutionKey(b, m));
  EXPECT_NE(QueryCache::ResolutionKey(a, m), QueryCache::ResolutionKey(c, m))
      << "attribute restriction changes the resolution";
}

// --------------------------------------------- store/find + invalidation

TEST(QueryCacheUnit, AnswerEntriesValidateExactEpochPending) {
  QueryCache cache(1 << 20, 4);
  const std::string key =
      QueryCache::AnswerKey(ParseQuery("gray transaction"), {}, {});

  EXPECT_EQ(cache.FindAnswers(key, 2, 5), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  CachedAnswers value;
  value.stats.answers_emitted = 3;
  cache.StoreAnswers(key, 2, 5, value);
  auto hit = cache.FindAnswers(key, 2, 5);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stats.answers_emitted, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // An *older* reader (pending 4) cannot use the entry, but must not
  // evict it either: newer readers still can.
  EXPECT_EQ(cache.FindAnswers(key, 2, 4), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_NE(cache.FindAnswers(key, 2, 5), nullptr);

  // A newer pending proves the entry stale for everyone at or past it:
  // dropped, and the follow-up probe is a plain miss.
  EXPECT_EQ(cache.FindAnswers(key, 2, 6), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.FindAnswers(key, 2, 6), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);

  // Epoch mismatch likewise drops the entry.
  cache.StoreAnswers(key, 2, 5, value);
  EXPECT_EQ(cache.FindAnswers(key, 3, 0), nullptr);
  EXPECT_EQ(cache.FindAnswers(key, 2, 5), nullptr);
}

TEST(QueryCacheUnit, ResolutionJournalValidation) {
  DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 120;
  config.seed = 11;
  DblpDataset ds = GenerateDblp(config);
  BanksEngine engine(std::move(ds.db));

  QueryCache cache(1 << 20, 2);
  const MatchOptions match;
  const QueryTerm soumen = ParseQuery("soumen").terms[0];

  LiveStateSnapshot st = engine.state();
  KeywordResolver resolver(engine.db(), *st->dg, *st->index, *st->metadata,
                           st->numeric.get(), st->delta.get(),
                           st->index_delta.get());

  auto first = cache.ResolveThrough(resolver, soumen, match, 0, 0);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(cache.stats().resolution_misses, 1u);
  auto second = cache.ResolveThrough(resolver, soumen, match, 0, 0);
  EXPECT_EQ(cache.stats().resolution_hits, 1u);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].node, second[i].node);
    EXPECT_EQ(first[i].relevance, second[i].relevance);
  }

  // A mutation touching an unrelated token leaves the resolution provably
  // exact at the later pending count.
  cache.OnMutationsApplied(0, 1, {"unrelatedtoken"}, {});
  cache.ResolveThrough(resolver, soumen, match, 0, 1);
  EXPECT_EQ(cache.stats().resolution_hits, 2u);

  // Touching one of the entry's own tokens invalidates it.
  cache.OnMutationsApplied(0, 2, {"soumen"}, {});
  cache.ResolveThrough(resolver, soumen, match, 0, 2);
  EXPECT_EQ(cache.stats().resolution_invalidations, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);  // answer probes only
  // ...and the re-resolved entry (stored at pending 2) hits again.
  cache.ResolveThrough(resolver, soumen, match, 0, 2);
  EXPECT_EQ(cache.stats().resolution_hits, 3u);

  // Metadata terms record matched table ids; touching the table
  // invalidates even when no journaled token overlaps. "paper" matches
  // the Paper table via the metadata index.
  const QueryTerm paper = ParseQuery("paper").terms[0];
  cache.ResolveThrough(resolver, paper, match, 0, 2);
  const Table* paper_table = engine.db().table(kPaperTable);
  ASSERT_NE(paper_table, nullptr);
  cache.OnMutationsApplied(0, 3, {"freshtoken"}, {paper_table->id()});
  const uint64_t before = cache.stats().resolution_invalidations;
  cache.ResolveThrough(resolver, paper, match, 0, 3);
  EXPECT_EQ(cache.stats().resolution_invalidations, before + 1);
}

TEST(QueryCacheUnit, NumericResolutionsNeverRevalidate) {
  DblpConfig config;
  config.num_authors = 40;
  config.num_papers = 80;
  config.seed = 13;
  DblpDataset ds = GenerateDblp(config);
  BanksEngine engine(std::move(ds.db));

  QueryCache cache(1 << 20, 2);
  LiveStateSnapshot st = engine.state();
  KeywordResolver resolver(engine.db(), *st->dg, *st->index, *st->metadata,
                           st->numeric.get(), st->delta.get(),
                           st->index_delta.get());
  const QueryTerm numeric = ParseQuery("approx(3)").terms[0];
  ASSERT_EQ(numeric.kind, QueryTerm::Kind::kNumericApprox);

  cache.ResolveThrough(resolver, numeric, {}, 0, 0);
  // Same (epoch, pending): no mutation happened, the snapshot is the
  // same, so even a live-column resolution is reusable.
  cache.ResolveThrough(resolver, numeric, {}, 0, 0);
  EXPECT_EQ(cache.stats().resolution_hits, 1u);
  // Any later pending: numeric resolutions read live column values, so
  // the journal can never prove them and they always re-resolve.
  cache.OnMutationsApplied(0, 1, {"whatever"}, {});
  cache.ResolveThrough(resolver, numeric, {}, 0, 1);
  EXPECT_EQ(cache.stats().resolution_invalidations, 1u);
}

TEST(QueryCacheUnit, LruEvictsByBytes) {
  QueryCache cache(4096, 1);
  CachedAnswers bulky;
  bulky.answers.resize(4);  // a few hundred bytes per entry
  for (int i = 0; i < 64; ++i) {
    cache.StoreAnswers("key" + std::to_string(i), 0, 0, bulky);
  }
  const QueryCacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, 4096u);
  EXPECT_LT(s.entries, 64u);
  // Most-recently stored entries survive; the eldest were evicted.
  EXPECT_NE(cache.FindAnswers("key63", 0, 0), nullptr);
  EXPECT_EQ(cache.FindAnswers("key0", 0, 0), nullptr);
}

TEST(QueryCacheUnit, RefreezePurgesDeadEpochs) {
  QueryCache cache(1 << 20, 4);
  CachedAnswers value;
  for (int i = 0; i < 10; ++i) {
    cache.StoreAnswers("key" + std::to_string(i), 1, 3, value);
  }
  EXPECT_EQ(cache.stats().entries, 10u);
  EXPECT_EQ(cache.OnRefreeze(2), 10u);
  const QueryCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.purged, 10u);
}

// ------------------------------------------------- engine integration

BanksOptions CachedOptions() {
  BanksOptions opts;
  opts.cache.enabled = true;
  return opts;
}

TEST(QueryCacheEngine, RepeatHitsServeIdenticalAnswers) {
  DblpConfig config;
  config.num_authors = 100;
  config.num_papers = 200;
  config.seed = 17;
  DblpDataset on_ds = GenerateDblp(config);
  DblpDataset off_ds = GenerateDblp(config);
  BanksEngine cached(std::move(on_ds.db), CachedOptions());
  BanksEngine plain(std::move(off_ds.db));

  const std::vector<std::string> queries = {
      "soumen sunita", "gray transaction", "mohan", "seltzer sunita"};
  for (const auto& q : queries) {
    auto miss = cached.Search({.text = q});
    auto again = cached.Search({.text = q});
    auto reference = plain.Search({.text = q});
    ASSERT_TRUE(miss.ok() && again.ok() && reference.ok());
    EXPECT_EQ(TreeKeys(again.value().answers),
              TreeKeys(reference.value().answers))
        << q;
    EXPECT_EQ(TreeKeys(miss.value().answers),
              TreeKeys(again.value().answers))
        << q;
    // A replayed run reports the cached run's final stats verbatim.
    EXPECT_EQ(miss.value().stats.iterator_visits,
              again.value().stats.iterator_visits);
    EXPECT_EQ(again.value().keyword_nodes, reference.value().keyword_nodes);
  }
  const QueryCacheStats s = cached.query_cache_stats();
  EXPECT_EQ(s.hits, queries.size());
  EXPECT_EQ(s.misses, queries.size());
  EXPECT_EQ(s.invalidations, 0u);
}

TEST(QueryCacheEngine, AuthorizedRunsBypassTheAnswerCache) {
  DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 120;
  config.seed = 19;
  DblpDataset ds = GenerateDblp(config);
  BanksEngine engine(std::move(ds.db), CachedOptions());

  AuthPolicy policy;
  policy.HideTable(kCitesTable);
  ASSERT_TRUE(engine.Search({.text = "soumen sunita", .auth = policy}).ok());
  ASSERT_TRUE(engine.Search({.text = "soumen sunita", .auth = policy}).ok());
  QueryCacheStats s = engine.query_cache_stats();
  EXPECT_EQ(s.hits, 0u) << "auth results must never be served from cache";
  EXPECT_EQ(s.misses, 0u) << "auth runs must not even probe";

  // ...and must not have polluted the cache for the policy-free run.
  auto unauthorized = engine.Search({.text = "soumen sunita"});
  ASSERT_TRUE(unauthorized.ok());
  s = engine.query_cache_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);

  // A budgeted run likewise bypasses (it may truncate).
  auto budgeted = engine.OpenSession({.text = "soumen sunita", .search = engine.options().search, .budget = Budget::WithVisitCap(10)});
  ASSERT_TRUE(budgeted.ok());
  budgeted.value().Drain();
  EXPECT_EQ(engine.query_cache_stats().misses, 1u);
}

TEST(QueryCacheEngine, CancelledSessionsAreNotAdmitted) {
  DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 120;
  config.seed = 29;
  DblpDataset ds = GenerateDblp(config);
  BanksEngine engine(std::move(ds.db), CachedOptions());

  auto session = engine.OpenSession({.text = "soumen sunita"});
  ASSERT_TRUE(session.ok());
  session.value().Next();
  session.value().Cancel();
  // The abandoned run must not have filled the cache: the next open is a
  // miss, not a hit on a partial answer list.
  auto full = engine.Search({.text = "soumen sunita"});
  ASSERT_TRUE(full.ok());
  QueryCacheStats s = engine.query_cache_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  // And the *complete* run was admitted: now it hits.
  ASSERT_TRUE(engine.Search({.text = "soumen sunita"}).ok());
  EXPECT_EQ(engine.query_cache_stats().hits, 1u);
}

TEST(QueryCacheEngine, MutationsInvalidateRefreezePurges) {
  DblpConfig config;
  config.num_authors = 100;
  config.num_papers = 200;
  config.seed = 23;
  DblpDataset on_ds = GenerateDblp(config);
  DblpDataset off_ds = GenerateDblp(config);
  const std::string soumen = on_ds.planted.soumen;
  BanksEngine cached(std::move(on_ds.db), CachedOptions());
  BanksEngine plain(std::move(off_ds.db));

  ASSERT_TRUE(cached.Search({.text = "soumen sunita"}).ok());  // miss + fill
  ASSERT_TRUE(cached.Search({.text = "gray transaction"}).ok());

  // Ingest a paper overlapping the first query's keyword set — on both
  // engines, so the reference stays comparable.
  auto ingest = [&](BanksEngine& e) {
    auto pid = e.InsertTuple(
        kPaperTable, Tuple({Value(std::string("P_cachetest")),
                            Value(std::string("Soumen Fresh Result"))}));
    ASSERT_TRUE(pid.ok());
    ASSERT_TRUE(
        e.InsertTuple(kWritesTable, Tuple({Value(soumen), Value(std::string(
                                                              "P_cachetest"))}))
            .ok());
  };
  ingest(cached);
  ingest(plain);

  // Answer entries key on the exact pending count, so *both* cached
  // queries re-run; but "gray transaction"'s resolutions — untouched by
  // the ingest — are proven exact by the journal and reused.
  auto after_on = cached.Search({.text = "soumen sunita"});
  auto after_off = plain.Search({.text = "soumen sunita"});
  ASSERT_TRUE(after_on.ok() && after_off.ok());
  EXPECT_EQ(TreeKeys(after_on.value().answers),
            TreeKeys(after_off.value().answers));
  QueryCacheStats s = cached.query_cache_stats();
  EXPECT_GE(s.invalidations, 1u);

  const uint64_t res_hits_before = s.resolution_hits;
  ASSERT_TRUE(cached.Search({.text = "gray transaction"}).ok());
  EXPECT_GT(cached.query_cache_stats().resolution_hits, res_hits_before);

  // Refreeze purges every entry of the dead epoch...
  auto stats = cached.Refreeze();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().cache_entries_purged, 0u);
  ASSERT_TRUE(plain.Refreeze().ok());
  // ...and the cache re-fills on the new epoch.
  auto miss = cached.Search({.text = "soumen sunita"});
  auto hit = cached.Search({.text = "soumen sunita"});
  auto ref = plain.Search({.text = "soumen sunita"});
  ASSERT_TRUE(miss.ok() && hit.ok() && ref.ok());
  EXPECT_EQ(TreeKeys(hit.value().answers), TreeKeys(ref.value().answers));
  EXPECT_GT(cached.query_cache_stats().hits, 0u);
}

TEST(QueryCacheEngine, PoolStatsSurfaceCacheCounters) {
  DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 120;
  config.seed = 37;
  DblpDataset ds = GenerateDblp(config);
  BanksEngine engine(std::move(ds.db), CachedOptions());
  server::PoolOptions popts;
  popts.num_workers = 2;
  server::SessionPool pool(engine, popts);
  for (int i = 0; i < 3; ++i) {
    auto handle = pool.Submit({.text = "soumen sunita"});
    ASSERT_TRUE(handle.ok());
    handle.value().Drain();
  }
  const server::PoolStats ps = pool.stats();
  EXPECT_EQ(ps.cache_hits + ps.cache_misses + ps.cache_invalidations, 3u);
  EXPECT_GE(ps.cache_hits, 1u);
}

// -------------------------------------------------------- property test

// Cache-on must be indistinguishable from cache-off: two engines over the
// identical dataset receive the identical randomized mutation stream
// (insert/delete/update bursts, auto-refreeze every 25 mutations, >= 3
// epochs) with queries interleaved; every query must return byte-identical
// answers. Queries alternate between exact and approximate matching, and
// the writes include near misses of the query terms (within edit distance
// 1, or extending them), which approximate expansion picks up from the
// delta vocabulary before any refreeze. Runtime counters then prove the
// cache actually engaged.
TEST(QueryCacheProperty, CacheOnEqualsCacheOffAcrossEpochs) {
  DblpConfig config;
  config.num_authors = 80;
  config.num_papers = 160;
  config.seed = 7;
  DblpDataset on_ds = GenerateDblp(config);
  DblpDataset off_ds = GenerateDblp(config);

  BanksOptions on = CachedOptions();
  on.update.auto_refreeze_mutations = 25;
  BanksOptions off;
  off.update.auto_refreeze_mutations = 25;
  BanksEngine cached(std::move(on_ds.db), on);
  BanksEngine plain(std::move(off_ds.db), off);

  const std::vector<std::string> queries = {
      "soumen sunita",    "gray transaction", "mohan",
      "seltzer sunita",   "jim gray reuter",  "stonebraker",
      "authorname:mohan", "paper",
  };
  const std::vector<std::string> vocab = {
      "soumen", "sunita", "gray",   "transaction", "mohan",
      "fresh",  "corpus", "result", "seltzer",     "recovery",
  };
  // Near misses of the query terms (edit distance 1, or extending them):
  // absent from the base vocabulary, so before a refreeze only approximate
  // expansion over the delta vocabulary can match them.
  const std::vector<std::string> near_misses = {
      "soumem", "sunitas", "grayx", "transactiom", "mohanx", "seltzr",
      "stonebrakers",
  };

  std::mt19937 rng(1234);
  std::vector<Rid> live_rids;  // identical on both engines by construction
  int inserted = 0;

  for (int step = 0; step < 140; ++step) {
    if (rng() % 10 < 7) {
      const std::string& q = queries[rng() % queries.size()];
      MatchOptions match;
      match.approx.enable = rng() % 2 == 0;
      const QueryCacheStats pre = cached.query_cache_stats();
      auto a = cached.Search({.text = q, .match = match});
      auto b = plain.Search({.text = q, .match = match});
      ASSERT_TRUE(a.ok() && b.ok());
      const QueryCacheStats post = cached.query_cache_stats();
      ASSERT_EQ(TreeKeys(a.value().answers), TreeKeys(b.value().answers))
          << "step " << step << " query '" << q << "' diverged (epoch "
          << cached.epoch() << ", pending " << cached.pending_mutations()
          << ", probe: hits+" << post.hits - pre.hits << " miss+"
          << post.misses - pre.misses << " inval+"
          << post.invalidations - pre.invalidations << " rhits+"
          << post.resolution_hits - pre.resolution_hits << " rmiss+"
          << post.resolution_misses - pre.resolution_misses << " rinval+"
          << post.resolution_invalidations - pre.resolution_invalidations
          << ", approx " << match.approx.enable << ")";
      ASSERT_EQ(a.value().keyword_nodes, b.value().keyword_nodes);
      ASSERT_EQ(a.value().dropped_terms, b.value().dropped_terms);
    } else {
      std::vector<Mutation> batch;
      const int burst = 1 + rng() % 5;
      for (int j = 0; j < burst; ++j) {
        const int kind = live_rids.empty() ? 0 : rng() % 4;
        if (kind <= 1) {
          const std::string pid = "P_prop" + std::to_string(inserted++);
          std::string title =
              rng() % 2 == 0 ? near_misses[rng() % near_misses.size()]
                             : vocab[rng() % vocab.size()];
          title += " ";
          title += vocab[rng() % vocab.size()];
          batch.push_back(
              Mutation::Insert(kPaperTable, Tuple({Value(pid), Value(title)})));
        } else if (kind == 2) {
          const size_t pick = rng() % live_rids.size();
          batch.push_back(Mutation::Delete(live_rids[pick]));
          live_rids.erase(live_rids.begin() + pick);
        } else {
          const size_t pick = rng() % live_rids.size();
          batch.push_back(Mutation::Update(
              live_rids[pick], "PaperName",
              Value(vocab[rng() % vocab.size()] + " updated")));
        }
      }
      std::vector<Mutation> batch_copy = batch;
      auto ra = cached.ApplyBatch(std::move(batch));
      auto rb = plain.ApplyBatch(std::move(batch_copy));
      ASSERT_EQ(ra.size(), rb.size());
      for (size_t j = 0; j < ra.size(); ++j) {
        ASSERT_EQ(ra[j].ok(), rb[j].ok());
        if (ra[j].ok()) {
          ASSERT_EQ(ra[j].value(), rb[j].value())
              << "rid streams diverged at step " << step;
          // Track inserts only (delete/update return the target rid).
          if (ra[j].value().table_id ==
                  cached.db().table(kPaperTable)->id() &&
              std::find(live_rids.begin(), live_rids.end(), ra[j].value()) ==
                  live_rids.end()) {
            live_rids.push_back(ra[j].value());
          }
        }
      }
      ASSERT_EQ(cached.epoch(), plain.epoch());
      ASSERT_EQ(cached.pending_mutations(), plain.pending_mutations());
    }
  }

  EXPECT_GE(cached.epoch(), 3u) << "the stream must cross >= 3 epochs";
  const QueryCacheStats s = cached.query_cache_stats();
  EXPECT_GT(s.hits, 0u) << "the cache never served a hit — test is vacuous";
  EXPECT_GT(s.invalidations, 0u)
      << "no entry was ever invalidated — test is vacuous";
  EXPECT_GT(s.resolution_hits, 0u);
  EXPECT_GT(s.resolution_invalidations, 0u);
  EXPECT_GT(s.purged, 0u);
}

// ------------------------------------------------------- TSan stress

// Concurrent submitters hammer a small cache (evictions guaranteed) while
// a writer mutates and refreezes. Part of the sanitizer repeat matrix
// (ci.yml runs QueryCacheStress* under TSan with --gtest_repeat).
TEST(QueryCacheStress, ConcurrentHitMissEvictUnderMutations) {
  DblpConfig config;
  config.num_authors = 80;
  config.num_papers = 160;
  config.seed = 41;
  DblpDataset ds = GenerateDblp(config);
  BanksOptions opts;
  opts.cache.enabled = true;
  opts.cache.max_bytes = 1 << 14;  // tiny: force constant LRU churn
  opts.cache.shards = 2;
  BanksEngine engine(std::move(ds.db), opts);

  server::PoolOptions popts;
  popts.num_workers = 4;
  popts.step_quantum = 64;
  server::SessionPool pool(engine, popts);

  const std::vector<std::string> queries = {
      "soumen sunita", "gray transaction", "mohan",
      "seltzer sunita", "stonebraker", "jim gray reuter",
  };

  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      std::mt19937 rng(100 + t);
      for (int i = 0; i < 40; ++i) {
        // Zipf-ish skew: low indices dominate, like the bench scenario.
        const size_t qi =
            std::min<size_t>(rng() % queries.size(), rng() % queries.size());
        auto handle = pool.Submit({.text = queries[qi]});
        if (!handle.ok()) {
          failures.fetch_add(1);
          continue;
        }
        handle.value().Drain();
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 30; ++i) {
      auto r = engine.InsertTuple(
          kPaperTable,
          Tuple({Value("P_stress" + std::to_string(i)),
                 Value("Transaction Stress " + std::to_string(i))}));
      if (!r.ok()) failures.fetch_add(1);
      if (i == 10 || i == 20) {
        if (!engine.Refreeze().ok()) failures.fetch_add(1);
      }
    }
  });
  for (auto& t : submitters) t.join();
  writer.join();

  EXPECT_EQ(failures.load(), 0);
  const QueryCacheStats s = engine.query_cache_stats();
  // 160 submits, each exactly one probe.
  EXPECT_EQ(s.hits + s.misses + s.invalidations, 160u);
  EXPECT_LE(s.bytes, opts.cache.max_bytes);
}

// ------------------------------------------- in-flight miss coalescing

// Two sessions opened on the same key before either finishes: the second
// must join the first's flight (counter), park without searching, and on
// the leader's completion adopt the identical answers.
TEST(QueryCacheCoalesce, FollowerAdoptsTheLeadersRun) {
  DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 120;
  config.seed = 21;
  DblpDataset ds = GenerateDblp(config);
  BanksEngine engine(std::move(ds.db), CachedOptions());

  auto leader = engine.OpenSession({.text = "soumen sunita"});
  auto follower = engine.OpenSession({.text = "soumen sunita"});
  ASSERT_TRUE(leader.ok() && follower.ok());
  EXPECT_EQ(engine.query_cache_stats().coalesced, 1u);

  // The follower must idle (kYielded, zero answers) while the flight runs.
  std::vector<ScoredAnswer> early;
  EXPECT_EQ(follower.value().PumpMany(1 << 20, &early),
            PumpOutcome::kYielded);
  EXPECT_TRUE(early.empty());
  EXPECT_EQ(follower.value().stats().iterator_visits, 0u)
      << "a parked follower must not expand the graph";

  std::vector<ConnectionTree> led = leader.value().Drain();
  ASSERT_FALSE(led.empty());

  // Published: the next pump adopts and replays the whole run.
  std::vector<ScoredAnswer> adopted;
  PumpOutcome outcome = PumpOutcome::kYielded;
  while (outcome == PumpOutcome::kYielded) {
    outcome = follower.value().PumpMany(64, &adopted);
  }
  EXPECT_EQ(outcome, PumpOutcome::kExhausted);
  ASSERT_EQ(adopted.size(), led.size());
  for (size_t i = 0; i < led.size(); ++i) {
    EXPECT_EQ(adopted[i].tree.UndirectedSignature(),
              led[i].UndirectedSignature())
        << i;
  }
  EXPECT_EQ(follower.value().stats().iterator_visits,
            leader.value().stats().iterator_visits)
      << "adoption replays the leader's final stats";
}

TEST(QueryCacheCoalesce, BlockingFollowerFallsBackImmediately) {
  DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 120;
  config.seed = 22;
  DblpDataset ds = GenerateDblp(config);
  BanksEngine engine(std::move(ds.db), CachedOptions());

  auto leader = engine.OpenSession({.text = "gray transaction"});
  auto follower = engine.OpenSession({.text = "gray transaction"});
  ASSERT_TRUE(leader.ok() && follower.ok());
  EXPECT_EQ(engine.query_cache_stats().coalesced, 1u);

  // A blocking Drain cannot poll; the follower searches for itself and
  // must produce the answers an independent run produces.
  std::vector<ConnectionTree> followed = follower.value().Drain();
  std::vector<ConnectionTree> led = leader.value().Drain();
  EXPECT_EQ(TreeKeys(followed), TreeKeys(led));
}

TEST(QueryCacheCoalesce, LeaderCancelAbortsTheFlight) {
  DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 120;
  config.seed = 23;
  DblpDataset ds = GenerateDblp(config);
  BanksEngine engine(std::move(ds.db), CachedOptions());

  auto leader = engine.OpenSession({.text = "seltzer sunita"});
  auto follower = engine.OpenSession({.text = "seltzer sunita"});
  auto reference = engine.OpenSession({.text = "mohan"});  // unrelated key: no flight
  ASSERT_TRUE(leader.ok() && follower.ok() && reference.ok());

  std::vector<ScoredAnswer> parked;
  EXPECT_EQ(follower.value().PumpMany(1 << 20, &parked),
            PumpOutcome::kYielded);
  EXPECT_TRUE(parked.empty());

  leader.value().Cancel();  // drops the sink -> the flight aborts

  // The follower detects the abort on its next pump and runs the search
  // itself: an independent engine-equivalent answer stream.
  std::vector<ScoredAnswer> recovered;
  PumpOutcome outcome = PumpOutcome::kYielded;
  while (outcome == PumpOutcome::kYielded) {
    outcome = follower.value().PumpMany(1 << 20, &recovered);
  }
  EXPECT_EQ(outcome, PumpOutcome::kExhausted);
  auto independent = engine.Search({.text = "seltzer sunita"});
  ASSERT_TRUE(independent.ok());
  ASSERT_EQ(recovered.size(), independent.value().answers.size());
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].tree.UndirectedSignature(),
              independent.value().answers[i].UndirectedSignature())
        << i;
  }
}

TEST(QueryCacheCoalesce, PoolSurfacesCoalescedCounter) {
  DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 120;
  config.seed = 24;
  DblpDataset ds = GenerateDblp(config);
  BanksEngine engine(std::move(ds.db), CachedOptions());
  server::PoolOptions popts;
  popts.num_workers = 2;
  server::SessionPool pool(engine, popts);

  // Submit the same query from many threads at once: every concurrent
  // duplicate miss must either hit the cache (a racing leader finished
  // first) or coalesce onto a flight — never expand the graph twice for
  // nothing. The exact split is timing-dependent; the sum is not.
  constexpr int kThreads = 8;
  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      auto handle = pool.Submit({.text = "soumen sunita"});
      if (!handle.ok()) {
        failures.fetch_add(1);
        return;
      }
      if (handle.value().Drain().empty()) failures.fetch_add(1);
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);

  const server::PoolStats ps = pool.stats();
  const QueryCacheStats cs = engine.query_cache_stats();
  EXPECT_EQ(ps.cache_coalesced, cs.coalesced);
  EXPECT_EQ(cs.hits + cs.misses, static_cast<uint64_t>(kThreads));
  // Deterministic floor: at most one session can be the leader of the
  // first flight, so with every session opened before any completes the
  // rest are hits or coalesced. At minimum the counters are consistent.
  EXPECT_LE(cs.coalesced, static_cast<uint64_t>(kThreads - 1));
}

}  // namespace
}  // namespace banks
