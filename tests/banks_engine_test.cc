#include "core/banks.h"

#include <gtest/gtest.h>

#include <set>

#include "datagen/dblp_gen.h"

namespace banks {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DblpConfig config;
    config.num_authors = 80;
    config.num_papers = 160;
    config.seed = 5;
    DblpDataset ds = GenerateDblp(config);
    planted_ = new DblpPlanted(ds.planted);
    engine_ = new BanksEngine(std::move(ds.db));
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete planted_;
    engine_ = nullptr;
    planted_ = nullptr;
  }
  static BanksEngine* engine_;
  static DblpPlanted* planted_;
};

BanksEngine* EngineTest::engine_ = nullptr;
DblpPlanted* EngineTest::planted_ = nullptr;

TEST_F(EngineTest, CoauthorQueryFindsPlantedPapers) {
  auto result = engine_->Search({.text = "soumen sunita"});
  ASSERT_TRUE(result.ok());
  const auto& answers = result.value().answers;
  ASSERT_FALSE(answers.empty());
  // Both planted co-authored papers must appear among the answers, and
  // one of them must be the very first answer.
  auto answer_has_paper = [&](const ConnectionTree& t, const std::string& id) {
    for (NodeId n : t.Nodes()) {
      ConnectionTree probe;
      probe.root = n;
      if (engine_->RootLabel(probe) == "Paper(" + id + ")") return true;
    }
    return false;
  };
  bool found0 = false, found1 = false;
  for (const auto& t : answers) {
    found0 |= answer_has_paper(t, planted_->soumen_sunita_papers[0]);
    found1 |= answer_has_paper(t, planted_->soumen_sunita_papers[1]);
  }
  EXPECT_TRUE(found0);
  EXPECT_TRUE(found1);
  EXPECT_TRUE(answer_has_paper(answers[0], planted_->soumen_sunita_papers[0]) ||
              answer_has_paper(answers[0], planted_->soumen_sunita_papers[1]))
      << engine_->Render(answers[0]);
}

TEST_F(EngineTest, AnswersApproximatelySortedByRelevance) {
  // §3: the bounded output heap reorders an approximately-sorted stream;
  // exact order is not guaranteed, but inversions must be rare and the
  // best answer must surface at the front.
  auto result = engine_->Search({.text = "soumen sunita"});
  ASSERT_TRUE(result.ok());
  const auto& answers = result.value().answers;
  ASSERT_FALSE(answers.empty());
  double best = 0;
  for (const auto& t : answers) best = std::max(best, t.relevance);
  EXPECT_DOUBLE_EQ(answers[0].relevance, best);
  size_t inversions = 0, pairs = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    for (size_t j = i + 1; j < answers.size(); ++j) {
      ++pairs;
      inversions += (answers[i].relevance < answers[j].relevance);
    }
  }
  EXPECT_LE(inversions * 100, pairs * 30) << inversions << "/" << pairs;
}

TEST_F(EngineTest, ExhaustiveModeExactlySorted) {
  SearchOptions opts = engine_->options().search;
  opts.exhaustive = true;
  auto result = engine_->Search({.text = "soumen sunita", .search = opts});
  ASSERT_TRUE(result.ok());
  const auto& answers = result.value().answers;
  for (size_t i = 1; i < answers.size(); ++i) {
    EXPECT_GE(answers[i - 1].relevance, answers[i].relevance);
  }
}

TEST_F(EngineTest, AnswersAreValidAndDistinct) {
  auto result = engine_->Search({.text = "soumen sunita"});
  ASSERT_TRUE(result.ok());
  std::set<std::string> sigs;
  for (const auto& t : result.value().answers) {
    EXPECT_TRUE(t.IsValidTree());
    EXPECT_TRUE(sigs.insert(t.UndirectedSignature()).second)
        << "duplicate answer emitted";
  }
}

TEST_F(EngineTest, EmptyQueryRejected) {
  auto result = engine_->Search({.text = " "});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, UnmatchedKeywordYieldsNoAnswersByDefault) {
  auto result = engine_->Search({.text = "soumen zzzzunmatchable"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().answers.empty());
  ASSERT_EQ(result.value().dropped_terms.size(), 1u);
  EXPECT_EQ(result.value().dropped_terms[0], 1u);
}

TEST_F(EngineTest, RenderProducesIndentedTree) {
  auto result = engine_->Search({.text = "soumen sunita"});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().answers.empty());
  std::string text = engine_->Render(result.value().answers[0]);
  EXPECT_NE(text.find("*"), std::string::npos);   // keyword markers
  EXPECT_NE(text.find("\n"), std::string::npos);
}

TEST_F(EngineTest, StatsReported) {
  auto result = engine_->Search({.text = "soumen sunita"});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().stats.iterator_visits, 0u);
  EXPECT_GT(result.value().stats.num_iterators, 0u);
}

TEST_F(EngineTest, PerQuerySearchOptionsRespected) {
  SearchOptions opts = engine_->options().search;
  opts.max_answers = 1;
  auto result = engine_->Search({.text = "soumen sunita", .search = opts});
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().answers.size(), 1u);
}

TEST(EnginePartialMatchTest, DroppedTermStillAnswersWhenAllowed) {
  DblpConfig config;
  config.num_authors = 40;
  config.num_papers = 60;
  DblpDataset ds = GenerateDblp(config);
  BanksOptions options;
  options.allow_partial_match = true;
  BanksEngine engine(std::move(ds.db), options);
  auto result = engine.Search({.text = "soumen zzzzunmatchable"});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().answers.empty());
  ASSERT_EQ(result.value().dropped_terms.size(), 1u);
  // leaf_for_term keeps a slot for the dropped term (kInvalidNode).
  EXPECT_EQ(result.value().answers[0].leaf_for_term.size(), 2u);
  EXPECT_EQ(result.value().answers[0].leaf_for_term[1], kInvalidNode);
}

TEST(EnginePartialMatchTest, MultipleDroppedTermsReported) {
  DblpConfig config;
  config.num_authors = 40;
  config.num_papers = 60;
  DblpDataset ds = GenerateDblp(config);
  BanksOptions options;
  options.allow_partial_match = true;
  BanksEngine engine(std::move(ds.db), options);
  auto result = engine.Search({.text = "zzzznothing soumen qqqqnothing"});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().dropped_terms.size(), 2u);
  EXPECT_EQ(result.value().dropped_terms[0], 0u);
  EXPECT_EQ(result.value().dropped_terms[1], 2u);
  // The surviving term still answers; every leaf slot exists.
  ASSERT_FALSE(result.value().answers.empty());
  for (const auto& tree : result.value().answers) {
    ASSERT_EQ(tree.leaf_for_term.size(), 3u);
    EXPECT_EQ(tree.leaf_for_term[0], kInvalidNode);
    EXPECT_NE(tree.leaf_for_term[1], kInvalidNode);
    EXPECT_EQ(tree.leaf_for_term[2], kInvalidNode);
  }
}

TEST(EnginePartialMatchTest, AllTermsDroppedYieldsNoAnswers) {
  DblpConfig config;
  config.num_authors = 40;
  config.num_papers = 60;
  DblpDataset ds = GenerateDblp(config);
  BanksOptions options;
  options.allow_partial_match = true;
  BanksEngine engine(std::move(ds.db), options);
  auto result = engine.Search({.text = "zzzznothing qqqqnothing"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().answers.empty());
  EXPECT_EQ(result.value().dropped_terms.size(), 2u);
}

TEST(EnginePartialMatchTest, StrictModeReportsEveryDroppedTerm) {
  DblpConfig config;
  config.num_authors = 40;
  config.num_papers = 60;
  DblpDataset ds = GenerateDblp(config);
  BanksEngine engine(std::move(ds.db));  // allow_partial_match = false
  auto result = engine.Search({.text = "zzzznothing soumen qqqqnothing"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().answers.empty());
  ASSERT_EQ(result.value().dropped_terms.size(), 2u);
  EXPECT_EQ(result.value().dropped_terms[0], 0u);
  EXPECT_EQ(result.value().dropped_terms[1], 2u);
  // Matches for the surviving term are still reported.
  EXPECT_FALSE(result.value().keyword_matches[1].empty());
}

TEST(EngineExclusionTest, ExcludedRootTablesByName) {
  DblpConfig config;
  config.num_authors = 40;
  config.num_papers = 60;
  DblpDataset ds = GenerateDblp(config);
  BanksOptions options;
  options.excluded_root_tables = {"Writes", "Cites"};
  BanksEngine engine(std::move(ds.db), options);
  auto result = engine.Search({.text = "soumen sunita"});
  ASSERT_TRUE(result.ok());
  for (const auto& t : result.value().answers) {
    Rid rid = engine.data_graph().RidForNode(t.root);
    const Table* table = engine.db().table(rid.table_id);
    EXPECT_NE(table->name(), "Writes");
    EXPECT_NE(table->name(), "Cites");
  }
}

TEST(EngineMetadataTest, MetadataKeywordQuery) {
  DblpConfig config;
  config.num_authors = 30;
  config.num_papers = 40;
  DblpDataset ds = GenerateDblp(config);
  std::string soumen = ds.planted.soumen;
  BanksEngine engine(std::move(ds.db));
  // "author soumen": "author" matches every Author tuple via metadata; the
  // single-node answer Author(soumen) (satisfying both terms) should win.
  auto result = engine.Search({.text = "author soumen"});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().answers.empty());
  const auto& top = result.value().answers[0];
  EXPECT_EQ(engine.RootLabel(top), "Author(" + soumen + ")");
  EXPECT_TRUE(top.edges.empty());
}

}  // namespace
}  // namespace banks
