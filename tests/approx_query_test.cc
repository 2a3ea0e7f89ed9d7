// Tests for approx(<n>) numeric terms and node-relevance scoring (§7).
#include <gtest/gtest.h>

#include <limits>

#include "core/banks.h"

namespace banks {
namespace {

// Bibliography with publication years: Paper(Year INT), plus year tokens in
// some titles.
Database MakeDb() {
  Database db;
  EXPECT_TRUE(db.CreateTable(TableSchema("Paper",
                                         {{"PaperId", ValueType::kString},
                                          {"Title", ValueType::kString},
                                          {"Year", ValueType::kInt}},
                                         {"PaperId"}))
                  .ok());
  auto add = [&db](const char* id, const char* title, int64_t year) {
    EXPECT_TRUE(
        db.Insert("Paper", Tuple({Value(id), Value(title), Value(year)}))
            .ok());
  };
  add("p88", "Concurrency Control Foundations", 1988);
  add("p89", "Concurrency in Practice", 1989);
  add("p95", "Concurrency Revisited", 1995);
  add("p70", "Relational Model", 1970);
  add("pTitle", "The 1988 Debates on concurrency", 2001);
  return db;
}

TEST(ApproxQueryParseTest, RecognisesApproxTerm) {
  auto q = ParseQuery("concurrency approx(1988)");
  ASSERT_EQ(q.terms.size(), 2u);
  EXPECT_EQ(q.terms[0].kind, QueryTerm::Kind::kKeyword);
  EXPECT_EQ(q.terms[1].kind, QueryTerm::Kind::kNumericApprox);
  EXPECT_DOUBLE_EQ(q.terms[1].numeric_value, 1988.0);
}

TEST(ApproxQueryParseTest, AttributeRestrictedApprox) {
  auto q = ParseQuery("year:approx(1988)");
  ASSERT_EQ(q.terms.size(), 1u);
  EXPECT_EQ(q.terms[0].kind, QueryTerm::Kind::kNumericApprox);
  EXPECT_EQ(q.terms[0].attribute, "year");
}

TEST(ApproxQueryParseTest, MalformedApproxFallsBackToKeyword) {
  auto q = ParseQuery("approx(abc) approx() approx(12");
  ASSERT_EQ(q.terms.size(), 3u);
  for (const auto& t : q.terms) {
    EXPECT_EQ(t.kind, QueryTerm::Kind::kKeyword);
  }
}

TEST(ApproxQueryParseTest, FloatingPointValue) {
  auto q = ParseQuery("approx(3.5)");
  ASSERT_EQ(q.terms.size(), 1u);
  EXPECT_EQ(q.terms[0].kind, QueryTerm::Kind::kNumericApprox);
  EXPECT_DOUBLE_EQ(q.terms[0].numeric_value, 3.5);
}

TEST(ApproxQueryTest, PapersAroundYearRanked) {
  BanksEngine engine(MakeDb());
  auto result = engine.Search({.text = "concurrency approx(1988)"});
  ASSERT_TRUE(result.ok());
  const auto& answers = result.value().answers;
  ASSERT_GE(answers.size(), 2u);
  // The 1988 paper must rank above the 1989 paper (closer match), and the
  // 1995 paper is outside the +/-5 window entirely... it is matched by
  // "concurrency" but approx(1988) covers 1983..1993 only, so the single
  // node p95 cannot satisfy the numeric term.
  EXPECT_EQ(engine.RootLabel(answers[0]), "Paper(p88)");
  // Every answer must contain a paper within the window for term 2.
  for (const auto& t : answers) {
    ASSERT_EQ(t.leaf_for_term.size(), 2u);
  }
}

TEST(ApproxQueryTest, ExactYearOutranksNearYear) {
  BanksEngine engine(MakeDb());
  auto result = engine.Search({.text = "concurrency approx(1988)"});
  ASSERT_TRUE(result.ok());
  const auto& answers = result.value().answers;
  // p88 (distance 0) then p89 (distance 1): verify relative order.
  int rank88 = -1, rank89 = -1;
  for (size_t i = 0; i < answers.size(); ++i) {
    std::string root = engine.RootLabel(answers[i]);
    if (root == "Paper(p88)") rank88 = static_cast<int>(i);
    if (root == "Paper(p89)") rank89 = static_cast<int>(i);
  }
  ASSERT_GE(rank88, 0);
  ASSERT_GE(rank89, 0);
  EXPECT_LT(rank88, rank89);
}

TEST(ApproxQueryTest, YearTokenInTitleMatches) {
  BanksEngine engine(MakeDb());
  auto result = engine.Search({.text = "approx(1988)"});
  ASSERT_TRUE(result.ok());
  bool title_match = false;
  for (const auto& t : result.value().answers) {
    if (engine.RootLabel(t) == "Paper(pTitle)") title_match = true;
  }
  EXPECT_TRUE(title_match);  // "1988" inside the title text
}

TEST(ApproxQueryTest, AttributeRestrictedApproxIgnoresTitleTokens) {
  BanksEngine engine(MakeDb());
  auto result = engine.Search({.text = "year:approx(1988)"});
  ASSERT_TRUE(result.ok());
  for (const auto& t : result.value().answers) {
    EXPECT_NE(engine.RootLabel(t), "Paper(pTitle)");
  }
  EXPECT_FALSE(result.value().answers.empty());
}

TEST(ApproxQueryTest, LeafRelevancesRecorded) {
  BanksEngine engine(MakeDb());
  auto result = engine.Search({.text = "concurrency approx(1990)"});
  ASSERT_TRUE(result.ok());
  bool found_inexact = false;
  for (const auto& t : result.value().answers) {
    ASSERT_EQ(t.leaf_relevance.size(), t.leaf_for_term.size());
    for (double r : t.leaf_relevance) {
      EXPECT_GT(r, 0.0);
      EXPECT_LE(r, 1.0);
      if (r < 1.0) found_inexact = true;
    }
  }
  EXPECT_TRUE(found_inexact);  // 1988/1989/1995-dated papers score < 1
}

TEST(ApproxQueryTest, FuzzyKeywordRelevanceDampens) {
  // Same tree, exact vs typo query: the typo answer scores lower.
  BanksOptions options;
  options.match.approx.enable = true;
  BanksEngine engine(MakeDb(), options);
  auto exact = engine.Search({.text = "foundations"});
  auto typo = engine.Search({.text = "foundatons"});  // edit distance 1
  ASSERT_TRUE(exact.ok() && typo.ok());
  ASSERT_FALSE(exact.value().answers.empty());
  ASSERT_FALSE(typo.value().answers.empty());
  EXPECT_EQ(engine.RootLabel(exact.value().answers[0]), "Paper(p88)");
  EXPECT_EQ(engine.RootLabel(typo.value().answers[0]), "Paper(p88)");
  EXPECT_GT(exact.value().answers[0].relevance,
            typo.value().answers[0].relevance);
}

TEST(ApproxQueryTest, UnboundedEditDistanceIsSafe) {
  // max_edit_distance = INT_MAX reaches the edit-distance bound unclamped
  // from keyword resolution and from the query cache's staleness check
  // (the second search probes the entry across a pending insert).
  BanksOptions options;
  options.match.approx.enable = true;
  options.match.approx.max_edit_distance = std::numeric_limits<int>::max();
  options.cache.enabled = true;
  BanksEngine engine(MakeDb(), options);
  auto typo = engine.Search({.text = "foundatons"});
  ASSERT_TRUE(typo.ok());
  ASSERT_FALSE(typo.value().answers.empty());
  EXPECT_EQ(engine.RootLabel(typo.value().answers[0]), "Paper(p88)");
  EXPECT_GT(typo.value().answers[0].relevance, 0.0);

  ASSERT_TRUE(engine
                  .InsertTuple("Paper", Tuple({Value("p99"),
                                               Value("Foundation Stones"),
                                               Value(int64_t{1999})}))
                  .ok());
  auto again = engine.Search({.text = "foundatons"});
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().answers.empty());
}

}  // namespace
}  // namespace banks
