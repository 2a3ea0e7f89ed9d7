// Live-ingestion subsystem (src/update/): delta-indexed mutations on the
// serving path and the online snapshot refreeze.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/banks.h"
#include "datagen/dblp_gen.h"
#include "server/session_pool.h"

namespace banks {
namespace {

DblpDataset SmallDblp() {
  DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 120;
  config.seed = 11;
  return GenerateDblp(config);
}

// Render-independent fingerprint of an answer list (NodeIds are
// snapshot-relative, so cross-snapshot comparisons go through labels).
std::vector<std::pair<std::string, double>> Fingerprints(
    const BanksEngine& engine, const std::vector<ConnectionTree>& answers) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(answers.size());
  for (const auto& t : answers) out.emplace_back(engine.Render(t), t.relevance);
  return out;
}

TEST(LiveUpdateTest, InsertIsSearchableBeforeRefreeze) {
  DblpDataset ds = SmallDblp();
  BanksEngine engine(std::move(ds.db));
  ASSERT_TRUE(engine.Search({.text = "zzyzxology"}).ok());
  EXPECT_TRUE(engine.Search({.text = "zzyzxology"}).value().answers.empty());

  auto rid = engine.InsertTuple(
      kPaperTable, Tuple({Value("P_new"), Value("On Zzyzxology at Scale")}));
  ASSERT_TRUE(rid.ok()) << rid.status().ToString();
  EXPECT_EQ(engine.epoch(), 0u);  // no refreeze happened
  EXPECT_EQ(engine.pending_mutations(), 1u);

  // The acceptance-criterion query: the fresh tuple matches *before* any
  // refreeze, through InvertedIndexDelta + DeltaGraph.
  auto result = engine.Search({.text = "zzyzxology"});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().answers.size(), 1u);
  const ConnectionTree& answer = result.value().answers[0];
  EXPECT_TRUE(answer.IsValidTree());
  EXPECT_EQ(engine.RootLabel(answer), "Paper(P_new)");
  EXPECT_NE(engine.Render(answer).find("Zzyzxology"), std::string::npos);
}

// With approx matching on (banks_server's default), a keyword that exists
// only in post-freeze rows must still be its own exact hit, even when a
// base keyword lies within edit distance 1 ("transactiom" vs
// "transaction"), and a resolution cached before the insert must not hide
// it.
TEST(LiveUpdateTest, DeltaOnlyKeywordWithABaseNeighbourExpandsToItself) {
  for (const bool cache : {false, true}) {
    SCOPED_TRACE(cache ? "cache on" : "cache off");
    DblpDataset ds = SmallDblp();
    BanksOptions options;
    options.match.approx.enable = true;
    options.cache.enabled = cache;
    BanksEngine engine(std::move(ds.db), options);
    ASSERT_FALSE(engine.inverted_index().Lookup("transaction").empty());
    ASSERT_TRUE(engine.inverted_index().Lookup("transactiom").empty());
    auto has_fresh_paper = [&](const std::vector<ConnectionTree>& answers) {
      for (const auto& t : answers) {
        if (engine.RootLabel(t) == "Paper(P_zq)") return true;
      }
      return false;
    };
    // Resolved (and, with the cache on, stored) before the insert.
    auto before = engine.Search({.text = "transactiom"});
    ASSERT_TRUE(before.ok());
    EXPECT_FALSE(has_fresh_paper(before.value().answers));

    ASSERT_TRUE(engine
                    .InsertTuple(kPaperTable, Tuple({Value("P_zq"),
                                                     Value("Transactiom Zq")}))
                    .ok());
    auto fresh = engine.Search({.text = "transactiom"});
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE(has_fresh_paper(fresh.value().answers))
        << "found before a refreeze";

    ASSERT_TRUE(engine.Refreeze().ok());
    auto refrozen = engine.Search({.text = "transactiom"});
    ASSERT_TRUE(refrozen.ok());
    EXPECT_TRUE(has_fresh_paper(refrozen.value().answers))
        << "found after a refreeze";
    // The same tuples match before and after: one vocabulary either way.
    ASSERT_EQ(fresh.value().keyword_nodes.size(), 1u);
    ASSERT_EQ(refrozen.value().keyword_nodes.size(), 1u);
    EXPECT_EQ(fresh.value().keyword_nodes[0].size(),
              refrozen.value().keyword_nodes[0].size());
  }
}

TEST(LiveUpdateTest, InsertJoinsExistingDataThroughDeltaEdges) {
  DblpDataset ds = SmallDblp();
  const std::string soumen = ds.planted.soumen;
  BanksEngine engine(std::move(ds.db));

  ASSERT_TRUE(engine
                  .InsertTuple(kPaperTable, Tuple({Value("P_fresh"),
                                                   Value("Quuxtastic Joins")}))
                  .ok());
  // The Writes row bridges a *delta* paper to a *frozen* author: both
  // overlay edge directions and the overlay->base boundary are exercised.
  ASSERT_TRUE(
      engine.InsertTuple(kWritesTable, Tuple({Value(soumen), Value("P_fresh")}))
          .ok());

  auto result = engine.Search({.text = "soumen quuxtastic"});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().answers.empty());
  bool found = false;
  for (const auto& tree : result.value().answers) {
    EXPECT_TRUE(tree.IsValidTree());
    const std::string rendered = engine.Render(tree);
    found |= rendered.find("Quuxtastic") != std::string::npos &&
             rendered.find("Soumen") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(LiveUpdateTest, DeltaAnswersMatchPostRefreezeAnswers) {
  DblpDataset ds = SmallDblp();
  const std::string sunita = ds.planted.sunita;
  BanksEngine engine(std::move(ds.db));
  ASSERT_TRUE(engine
                  .InsertTuple(kPaperTable, Tuple({Value("P_d"),
                                                   Value("Delta Frobnication")}))
                  .ok());
  ASSERT_TRUE(
      engine.InsertTuple(kWritesTable, Tuple({Value(sunita), Value("P_d")}))
          .ok());

  auto before = engine.Search({.text = "sunita frobnication"});
  ASSERT_TRUE(before.ok());
  auto fp_before = Fingerprints(engine, before.value().answers);

  auto stats = engine.Refreeze();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().mutations_absorbed, 2u);
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.pending_mutations(), 0u);
  EXPECT_EQ(engine.state()->delta, nullptr);

  auto after = engine.Search({.text = "sunita frobnication"});
  ASSERT_TRUE(after.ok());
  // Delta-overlay answers and frozen-CSR answers agree up to the §2.2
  // weight refinement the refreeze applies (per-relation indegrees replace
  // the overlay's total-indegree approximation): same answer set, here
  // byte-identical rendering because the touched nodes are lightly linked.
  auto fp_after = Fingerprints(engine, after.value().answers);
  ASSERT_FALSE(fp_after.empty());
  std::set<std::string> rendered_before, rendered_after;
  for (const auto& [text, _] : fp_before) rendered_before.insert(text);
  for (const auto& [text, _] : fp_after) rendered_after.insert(text);
  EXPECT_EQ(rendered_before, rendered_after);
}

TEST(LiveUpdateTest, DeleteStopsMatchingImmediatelyAndAfterRefreeze) {
  DblpDataset ds = SmallDblp();
  BanksEngine engine(std::move(ds.db));
  auto rid = engine.InsertTuple(
      kPaperTable, Tuple({Value("P_gone"), Value("Ephemeral Splineology")}));
  ASSERT_TRUE(rid.ok());
  ASSERT_EQ(engine.Search({.text = "splineology"}).value().answers.size(), 1u);

  ASSERT_TRUE(engine.DeleteTuple(rid.value()).ok());
  EXPECT_TRUE(engine.Search({.text = "splineology"}).value().answers.empty());

  // Double delete is an error; the tombstoned row still renders for old
  // snapshots (storage keeps the data until the refreeze).
  EXPECT_FALSE(engine.DeleteTuple(rid.value()).ok());
  EXPECT_NE(engine.db().Get(rid.value()), nullptr);

  ASSERT_TRUE(engine.Refreeze().ok());
  EXPECT_TRUE(engine.Search({.text = "splineology"}).value().answers.empty());
}

TEST(LiveUpdateTest, DeleteOfFrozenTupleTombstonesBaseNode) {
  DblpDataset ds = SmallDblp();
  BanksEngine engine(std::move(ds.db));
  // Tombstone a *frozen* author: its node must stop matching even though
  // it sits in the immutable CSR.
  const Table* authors = engine.db().table(kAuthorTable);
  ASSERT_NE(authors, nullptr);
  const Rid victim{authors->id(), 0};
  const std::string name = engine.db().Get(victim)->at(1).AsString();
  // The generated pool reuses names; only assert the victim itself is gone
  // by checking no answer renders its AuthorId.
  const std::string victim_id = engine.db().Get(victim)->at(0).AsString();
  ASSERT_TRUE(engine.DeleteTuple(victim).ok());

  auto result = engine.Search({.text = name});
  ASSERT_TRUE(result.ok());
  for (const auto& tree : result.value().answers) {
    EXPECT_EQ(engine.Render(tree).find("AuthorId=" + victim_id),
              std::string::npos);
  }
  const size_t nodes_before = engine.state()->dg->graph.num_nodes();
  ASSERT_TRUE(engine.Refreeze().ok());
  EXPECT_EQ(engine.state()->dg->graph.num_nodes(), nodes_before - 1);
}

TEST(LiveUpdateTest, UpdateValueIsSearchableAndRefreezeDropsStaleTokens) {
  DblpDataset ds = SmallDblp();
  BanksEngine engine(std::move(ds.db));
  auto rid = engine.InsertTuple(
      kPaperTable, Tuple({Value("P_up"), Value("Wrongulated Draft")}));
  ASSERT_TRUE(rid.ok());
  ASSERT_EQ(engine.Search({.text = "wrongulated"}).value().answers.size(), 1u);

  ASSERT_TRUE(
      engine.UpdateValue(rid.value(), "PaperName", Value("Rectified Final"))
          .ok());
  // New tokens match immediately...
  EXPECT_EQ(engine.Search({.text = "rectified"}).value().answers.size(), 1u);
  // ...and the documented staleness: the old token still resolves to the
  // (current) tuple until the refreeze rebuilds the index, then vanishes.
  EXPECT_EQ(engine.Search({.text = "wrongulated"}).value().answers.size(), 1u);
  ASSERT_TRUE(engine.Refreeze().ok());
  EXPECT_TRUE(engine.Search({.text = "wrongulated"}).value().answers.empty());
  EXPECT_EQ(engine.Search({.text = "rectified"}).value().answers.size(), 1u);

  // PK updates are rejected (Rid identity would change).
  EXPECT_FALSE(
      engine.UpdateValue(rid.value(), "PaperId", Value("P_other")).ok());
  // Type mismatches are rejected.
  EXPECT_FALSE(
      engine.UpdateValue(rid.value(), "PaperName", Value(int64_t{7})).ok());
}

TEST(LiveUpdateTest, UpdateRetargetsForeignKeyEdge) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("Author",
                                         {{"AuthorId", ValueType::kString},
                                          {"AuthorName", ValueType::kString}},
                                         {"AuthorId"}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("Paper",
                                         {{"PaperId", ValueType::kString},
                                          {"PaperName", ValueType::kString}},
                                         {"PaperId"}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("Writes",
                                         {{"WId", ValueType::kString},
                                          {"AuthorId", ValueType::kString},
                                          {"PaperId", ValueType::kString}},
                                         {"WId"}))
                  .ok());
  ASSERT_TRUE(db.AddForeignKey(ForeignKey{"w_author", "Writes", {"AuthorId"},
                                          "Author", {"AuthorId"}})
                  .ok());
  ASSERT_TRUE(db.AddForeignKey(
                    ForeignKey{"w_paper", "Writes", {"PaperId"}, "Paper",
                               {"PaperId"}})
                  .ok());
  ASSERT_TRUE(
      db.Insert("Author", Tuple({Value("A1"), Value("alice")})).ok());
  ASSERT_TRUE(db.Insert("Author", Tuple({Value("A2"), Value("bobby")})).ok());
  ASSERT_TRUE(db.Insert("Paper", Tuple({Value("P1"), Value("gadgets")})).ok());
  auto writes =
      db.Insert("Writes", Tuple({Value("W1"), Value("A1"), Value("P1")}));
  ASSERT_TRUE(writes.ok());
  const Rid writes_rid = writes.value();

  BanksEngine engine(std::move(db));
  ASSERT_FALSE(engine.Search({.text = "alice gadgets"}).value().answers.empty());
  ASSERT_TRUE(engine.Search({.text = "bobby gadgets"}).value().answers.empty());

  // Retarget the authorship: the old overlay edge dies, the new one joins
  // bobby to the paper — before any refreeze.
  ASSERT_TRUE(engine.UpdateValue(writes_rid, "AuthorId", Value("A2")).ok());
  EXPECT_TRUE(engine.Search({.text = "alice gadgets"}).value().answers.empty());
  EXPECT_FALSE(engine.Search({.text = "bobby gadgets"}).value().answers.empty());

  ASSERT_TRUE(engine.Refreeze().ok());
  EXPECT_TRUE(engine.Search({.text = "alice gadgets"}).value().answers.empty());
  EXPECT_FALSE(engine.Search({.text = "bobby gadgets"}).value().answers.empty());
}

TEST(LiveUpdateTest, AutoRefreezeAtThreshold) {
  DblpDataset ds = SmallDblp();
  BanksOptions options;
  options.update.auto_refreeze_mutations = 3;
  BanksEngine engine(std::move(ds.db), options);

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine
                    .InsertTuple(kPaperTable,
                                 Tuple({Value("P_auto" + std::to_string(i)),
                                        Value("Autofreeze Probe")}))
                    .ok());
  }
  EXPECT_EQ(engine.epoch(), 0u);
  EXPECT_EQ(engine.pending_mutations(), 2u);
  ASSERT_TRUE(engine
                  .InsertTuple(kPaperTable,
                               Tuple({Value("P_auto2"),
                                      Value("Autofreeze Probe")}))
                  .ok());
  // The third mutation crossed the threshold: refreeze ran synchronously.
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.pending_mutations(), 0u);
  EXPECT_EQ(engine.Search({.text = "autofreeze"}).value().answers.size(), 3u);
}

TEST(LiveUpdateTest, SessionOpenedBeforeMutationIsUnaffected) {
  DblpDataset ds = SmallDblp();
  const std::string soumen = ds.planted.soumen;
  const std::string sunita = ds.planted.sunita;
  BanksEngine engine(std::move(ds.db));

  auto baseline = engine.Search({.text = "soumen sunita"});
  ASSERT_TRUE(baseline.ok());

  auto session = engine.OpenSession({.text = "soumen sunita"});
  ASSERT_TRUE(session.ok());

  // Mutate + refreeze while the session is open but undrained: a heavily
  // relevant new co-authored paper *would* change its answers if the
  // session saw it.
  ASSERT_TRUE(engine
                  .InsertTuple(kPaperTable,
                               Tuple({Value("P_mid"), Value("Midstream")}))
                  .ok());
  ASSERT_TRUE(
      engine.InsertTuple(kWritesTable, Tuple({Value(soumen), Value("P_mid")}))
          .ok());
  ASSERT_TRUE(
      engine.InsertTuple(kWritesTable, Tuple({Value(sunita), Value("P_mid")}))
          .ok());
  ASSERT_TRUE(engine.Refreeze().ok());

  // The pre-mutation session drains byte-identically to the pre-mutation
  // batch run: same trees in the same order on the same snapshot.
  auto drained = session.value().Drain();
  ASSERT_EQ(drained.size(), baseline.value().answers.size());
  for (size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].UndirectedSignature(),
              baseline.value().answers[i].UndirectedSignature());
    EXPECT_DOUBLE_EQ(drained[i].relevance,
                     baseline.value().answers[i].relevance);
  }

  // A session opened now runs on the new epoch and sees the new paper.
  auto fresh = engine.Search({.text = "soumen sunita midstream"});
  ASSERT_TRUE(fresh.ok());
  ASSERT_FALSE(fresh.value().answers.empty());
}

TEST(LiveUpdateTest, PoolStatsReportEpochAndPendingDeltas) {
  DblpDataset ds = SmallDblp();
  BanksEngine engine(std::move(ds.db));
  ASSERT_TRUE(engine
                  .InsertTuple(kPaperTable,
                               Tuple({Value("P_s"), Value("Statful")}))
                  .ok());
  server::PoolOptions popts;
  popts.num_workers = 2;
  auto stats = engine.pool(popts).stats();
  EXPECT_EQ(stats.engine_epoch, 0u);
  EXPECT_EQ(stats.pending_mutations, 1u);
  ASSERT_TRUE(engine.Refreeze().ok());
  stats = engine.pool().stats();
  EXPECT_EQ(stats.engine_epoch, 1u);
  EXPECT_EQ(stats.pending_mutations, 0u);
}

TEST(LiveUpdateTest, CrossEpochRenderIsSafeAndSessionSnapshotIsExact) {
  DblpDataset ds = SmallDblp();
  BanksEngine engine(std::move(ds.db));
  ASSERT_TRUE(engine
                  .InsertTuple(kPaperTable, Tuple({Value("P_x"),
                                                   Value("Epochal Writings")}))
                  .ok());

  auto session = engine.OpenSession({.text = "epochal"});
  ASSERT_TRUE(session.ok());
  auto answer = session.value().Next();
  ASSERT_TRUE(answer.has_value());
  // The answer's root is an overlay node (id past the frozen node count).
  ASSERT_GE(answer->tree.root, engine.state()->dg->graph.num_nodes());

  // The exact idiom: render against the session's own snapshot + delta.
  const std::string exact =
      RenderAnswer(answer->tree, *session.value().graph_snapshot(),
                   engine.db(), session.value().delta().get());
  EXPECT_NE(exact.find("Epochal Writings"), std::string::npos);

  // Shrink the id space (two frozen tuples die), then refreeze: the
  // overlay id now lies past the new graph's node count. engine.Render
  // must degrade to "?" labels, never read out of bounds.
  const Table* cites = engine.db().table(kCitesTable);
  ASSERT_NE(cites, nullptr);
  ASSERT_TRUE(engine.DeleteTuple(Rid{cites->id(), 0}).ok());
  ASSERT_TRUE(engine.DeleteTuple(Rid{cites->id(), 1}).ok());
  ASSERT_TRUE(engine.Refreeze().ok());
  ASSERT_GE(answer->tree.root, engine.state()->dg->graph.num_nodes());
  const std::string stale = engine.Render(answer->tree);
  EXPECT_NE(stale.find('?'), std::string::npos);
  // And the session's own snapshot stays exact after the swap.
  EXPECT_EQ(RenderAnswer(answer->tree, *session.value().graph_snapshot(),
                         engine.db(), session.value().delta().get()),
            exact);
}

TEST(LiveUpdateTest, InsertAppendsToBuiltInclusionIndex) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("Tag",
                                         {{"TagId", ValueType::kString},
                                          {"Label", ValueType::kString}},
                                         {"TagId"}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("Item",
                                         {{"ItemId", ValueType::kString},
                                          {"Label", ValueType::kString}},
                                         {"ItemId"}))
                  .ok());
  ASSERT_TRUE(db.AddInclusionDependency(InclusionDependency{
                    "item_tag", "Item", "Label", "Tag", "Label"})
                  .ok());
  ASSERT_TRUE(db.Insert("Tag", Tuple({Value("T1"), Value("red")})).ok());
  auto item = db.Insert("Item", Tuple({Value("I1"), Value("red")}));
  ASSERT_TRUE(item.ok());
  // Force the lazy inclusion index to build...
  ASSERT_EQ(db.ResolveInclusion(db.inclusion_dependencies()[0], item.value())
                .size(),
            1u);
  // ...then insert another matching referred row: the built index must
  // absorb it incrementally (no invalidation on the ingest path).
  ASSERT_TRUE(db.Insert("Tag", Tuple({Value("T2"), Value("red")})).ok());
  EXPECT_EQ(db.ResolveInclusion(db.inclusion_dependencies()[0], item.value())
                .size(),
            2u);
}

TEST(LiveUpdateTest, MutationErrorsLeaveStateUntouched) {
  DblpDataset ds = SmallDblp();
  BanksEngine engine(std::move(ds.db));
  EXPECT_FALSE(engine.InsertTuple("NoSuchTable", Tuple({Value("x")})).ok());
  // Arity mismatch.
  EXPECT_FALSE(engine.InsertTuple(kPaperTable, Tuple({Value("x")})).ok());
  // Duplicate PK against a frozen row.
  const std::string existing_pk =
      engine.db().table(kPaperTable)->row(0).at(0).AsString();
  EXPECT_FALSE(
      engine.InsertTuple(kPaperTable, Tuple({Value(existing_pk), Value("t")}))
          .ok());
  EXPECT_FALSE(engine.DeleteTuple(Rid{99, 0}).ok());
  EXPECT_EQ(engine.pending_mutations(), 0u);
  EXPECT_EQ(engine.total_mutations(), 0u);
}

}  // namespace
}  // namespace banks
