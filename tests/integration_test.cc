// End-to-end integration tests: the §5.1 anecdotes as assertions, plus
// cross-module pipelines (CSV round trip -> same answers; index snapshot;
// search results rendered and browsed).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "browse/browser.h"
#include "eval/workload.h"
#include "snapshot/snapshot.h"
#include "storage/csv.h"
#include "update/state_compare.h"

namespace banks {
namespace {

class AnecdoteTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DblpConfig dblp;
    dblp.num_authors = 200;
    dblp.num_papers = 400;
    ThesisConfig thesis;
    thesis.num_faculty = 80;
    thesis.num_students = 400;
    workload_ = new EvalWorkload(dblp, thesis);
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }
  static EvalWorkload* workload_;

  static std::string RootLabelOf(const BanksEngine& engine,
                                 const ConnectionTree& t) {
    return engine.RootLabel(t);
  }
};

EvalWorkload* AnecdoteTest::workload_ = nullptr;

// "For the query 'Mohan' ... C. Mohan came out at the top of the ranking,
// with Mohan Ahuja and Mohan Kamat following."
TEST_F(AnecdoteTest, MohanRankedByProlificness) {
  const BanksEngine& engine = workload_->dblp_engine();
  const DblpPlanted& p = workload_->dblp_planted();
  auto result = engine.Search({.text = "mohan"});
  ASSERT_TRUE(result.ok());
  const auto& answers = result.value().answers;
  ASSERT_GE(answers.size(), 3u);
  EXPECT_EQ(RootLabelOf(engine, answers[0]), "Author(" + p.c_mohan + ")");
  EXPECT_EQ(RootLabelOf(engine, answers[1]), "Author(" + p.mohan_ahuja + ")");
  EXPECT_EQ(RootLabelOf(engine, answers[2]), "Author(" + p.mohan_kamat + ")");
}

// "The query 'transaction' returned Jim Gray's classic paper and the book
// by Gray and Reuter as the top two answers."
TEST_F(AnecdoteTest, TransactionClassicsOnTop) {
  const BanksEngine& engine = workload_->dblp_engine();
  const DblpPlanted& p = workload_->dblp_planted();
  auto result = engine.Search({.text = "transaction"});
  ASSERT_TRUE(result.ok());
  const auto& answers = result.value().answers;
  ASSERT_GE(answers.size(), 2u);
  std::set<std::string> top2 = {RootLabelOf(engine, answers[0]),
                                RootLabelOf(engine, answers[1])};
  EXPECT_TRUE(top2.count("Paper(" + p.gray_transaction_paper + ")"));
  EXPECT_TRUE(top2.count("Paper(" + p.gray_reuter_book + ")"));
}

// "the query 'computer engineering' returned the Computer Science and
// Engineering department with a higher relevance than a number of theses
// that had these two words in their title."
TEST_F(AnecdoteTest, ComputerEngineeringDepartmentWins) {
  const BanksEngine& engine = workload_->thesis_engine();
  const ThesisPlanted& p = workload_->thesis_planted();
  auto result = engine.Search({.text = "computer engineering"});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().answers.empty());
  EXPECT_EQ(RootLabelOf(engine, result.value().answers[0]),
            "Department(" + p.cse_dept + ")");
}

// "The query 'sudarshan aditya' returned a thesis written by Aditya whose
// advisor is Sudarshan."
TEST_F(AnecdoteTest, SudarshanAdityaThesis) {
  const BanksEngine& engine = workload_->thesis_engine();
  const ThesisPlanted& p = workload_->thesis_planted();
  auto result = engine.Search({.text = "sudarshan aditya"});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().answers.empty());
  // The top answer's tree must contain the planted thesis tuple.
  bool found = false;
  const auto& top = result.value().answers[0];
  for (NodeId n : top.Nodes()) {
    ConnectionTree probe;
    probe.root = n;
    if (RootLabelOf(engine, probe) == "Thesis(" + p.aditya_thesis + ")") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << engine.Render(top);
}

// "The query 'seltzer sunita' returned Stonebraker as the root, with
// connections to Sunita and Seltzer through papers co-authored by
// Stonebraker with each of them separately."
TEST_F(AnecdoteTest, SeltzerSunitaViaStonebraker) {
  const BanksEngine& engine = workload_->dblp_engine();
  const DblpPlanted& p = workload_->dblp_planted();
  auto result = engine.Search({.text = "seltzer sunita"});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().answers.empty());
  bool stonebraker_answer_found = false;
  size_t rank_with_log = 0;
  for (size_t i = 0; i < result.value().answers.size(); ++i) {
    for (NodeId n : result.value().answers[i].Nodes()) {
      ConnectionTree probe;
      probe.root = n;
      if (RootLabelOf(engine, probe) == "Author(" + p.stonebraker + ")") {
        stonebraker_answer_found = true;
        rank_with_log = i;
        break;
      }
    }
    if (stonebraker_answer_found) break;
  }
  EXPECT_TRUE(stonebraker_answer_found);
  EXPECT_LT(rank_with_log, 3u);  // near the top with EdgeLog on
}

// "Without log scaling on edges, this answer got a lower rank ... since the
// backward edge from Stonebraker to the Writes tuples has a very high
// weight due to the large number of papers written by Stonebraker."
TEST_F(AnecdoteTest, EdgeLogRescuesStonebrakerBridge) {
  const BanksEngine& engine = workload_->dblp_engine();
  const DblpPlanted& p = workload_->dblp_planted();

  auto rank_of_stonebraker = [&](bool edge_log) -> int {
    SearchOptions opts = engine.options().search;
    opts.scoring.edge_log = edge_log;
    opts.max_answers = 10;
    auto result = engine.Search({.text = "seltzer sunita", .search = opts});
    if (!result.ok()) return 99;
    for (size_t i = 0; i < result.value().answers.size(); ++i) {
      for (NodeId n : result.value().answers[i].Nodes()) {
        ConnectionTree probe;
        probe.root = n;
        if (engine.RootLabel(probe) == "Author(" + p.stonebraker + ")") {
          return static_cast<int>(i);
        }
      }
    }
    return 11;  // missing
  };
  int with_log = rank_of_stonebraker(true);
  int without_log = rank_of_stonebraker(false);
  EXPECT_LE(with_log, without_log);
  EXPECT_LT(with_log, 3);
}

// Figure 2: the query "soumen sunita" rendered as an indented tree whose
// root is the co-authored paper with Writes tuples as intermediates.
TEST_F(AnecdoteTest, Figure2SoumenSunita) {
  const BanksEngine& engine = workload_->dblp_engine();
  const DblpPlanted& p = workload_->dblp_planted();
  auto result = engine.Search({.text = "soumen sunita"});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().answers.empty());
  std::string rendered = engine.Render(result.value().answers[0]);
  EXPECT_NE(rendered.find("Soumen Chakrabarti"), std::string::npos);
  EXPECT_NE(rendered.find("Sunita Sarawagi"), std::string::npos);
  EXPECT_NE(rendered.find("Writes"), std::string::npos);
  // Both planted papers show up in the top answers.
  bool famous = false;
  for (const auto& t : result.value().answers) {
    for (NodeId n : t.Nodes()) {
      ConnectionTree probe;
      probe.root = n;
      if (engine.RootLabel(probe) ==
          "Paper(" + p.soumen_sunita_papers[0] + ")") {
        famous = true;
      }
    }
  }
  EXPECT_TRUE(famous);
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("banks_integration_" + std::to_string(::getpid()));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(PipelineTest, CsvRoundTripPreservesSearchResults) {
  DblpConfig config;
  config.num_authors = 60;
  config.num_papers = 120;
  DblpDataset ds = GenerateDblp(config);
  ASSERT_TRUE(SaveDatabase(ds.db, dir_.string()).ok());

  BanksEngine original(std::move(ds.db));
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok());
  BanksEngine reloaded(std::move(loaded).value());

  for (const char* query : {"soumen sunita", "mohan", "transaction"}) {
    auto a = original.Search({.text = query});
    auto b = reloaded.Search({.text = query});
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a.value().answers.size(), b.value().answers.size()) << query;
    for (size_t i = 0; i < a.value().answers.size(); ++i) {
      EXPECT_EQ(original.Render(a.value().answers[i]),
                reloaded.Render(b.value().answers[i]))
          << query << " answer " << i;
    }
  }
}

TEST_F(PipelineTest, SearchResultsBrowsable) {
  DblpConfig config;
  config.num_authors = 40;
  config.num_papers = 60;
  DblpDataset ds = GenerateDblp(config);
  BanksEngine engine(std::move(ds.db));
  Browser browser(engine.db());

  auto result = engine.Search({.text = "soumen sunita"});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().answers.empty());
  // Every node of the top answer must have a browsable tuple page.
  for (NodeId n : result.value().answers[0].Nodes()) {
    Rid rid = engine.data_graph().RidForNode(n);
    const Table* t = engine.db().table(rid.table_id);
    auto page = browser.TuplePage(t->name(), rid.row);
    EXPECT_TRUE(page.ok());
  }
}

TEST_F(PipelineTest, IndexPersistenceMatchesRebuild) {
  // The index persists as its own layout inside the snapshot file; the
  // reopened (mapped) index must equal a fresh build.
  DblpConfig config;
  config.num_authors = 40;
  config.num_papers = 60;
  DblpDataset ds = GenerateDblp(config);
  InvertedIndex built;
  built.Build(ds.db);
  BanksEngine engine(std::move(ds.db));
  std::filesystem::create_directories(dir_);
  const std::string path = (dir_ / "epoch.banks").string();
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  auto opened = snapshot::OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const InvertedIndex& loaded = *opened.value().state->index;
  EXPECT_TRUE(loaded.is_view());
  std::string diff;
  EXPECT_TRUE(InvertedIndexesIdentical(loaded, built, &diff)) << diff;
  for (const auto& kw : {"soumen", "sunita", "transaction"}) {
    const auto lhs = loaded.Lookup(kw);
    const auto rhs = built.Lookup(kw);
    EXPECT_FALSE(rhs.empty()) << kw;
    EXPECT_TRUE(std::equal(lhs.begin(), lhs.end(), rhs.begin(), rhs.end()))
        << kw;
  }
}

}  // namespace
}  // namespace banks
