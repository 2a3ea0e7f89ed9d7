#include "index/inverted_index.h"

#include <gtest/gtest.h>

namespace banks {
namespace {

Database MakeDb() {
  Database db;
  EXPECT_TRUE(db.CreateTable(TableSchema("Paper",
                                         {{"PaperId", ValueType::kString},
                                          {"Title", ValueType::kString},
                                          {"Year", ValueType::kInt}},
                                         {"PaperId"}))
                  .ok());
  EXPECT_TRUE(
      db.Insert("Paper", Tuple({Value("p1"), Value("Keyword Search in Databases"),
                                Value(int64_t{2002})}))
          .ok());
  EXPECT_TRUE(db.Insert("Paper", Tuple({Value("p2"),
                                        Value("Search Engines and search"),
                                        Value(int64_t{1998})}))
                  .ok());
  EXPECT_TRUE(db.Insert("Paper", Tuple({Value("p3"), Value::Null(),
                                        Value(int64_t{2000})}))
                  .ok());
  return db;
}

TEST(InvertedIndexTest, BuildAndLookup) {
  Database db = MakeDb();
  InvertedIndex idx;
  idx.Build(db);
  EXPECT_EQ(idx.Lookup("keyword").size(), 1u);
  EXPECT_EQ(idx.Lookup("search").size(), 2u);
  EXPECT_EQ(idx.Lookup("nonexistent").size(), 0u);
}

TEST(InvertedIndexTest, CaseInsensitiveLookup) {
  Database db = MakeDb();
  InvertedIndex idx;
  idx.Build(db);
  EXPECT_EQ(idx.Lookup("SEARCH").size(), 2u);
  EXPECT_EQ(idx.Lookup("Keyword").size(), 1u);
}

TEST(InvertedIndexTest, DuplicateTokensInOneTupleCollapse) {
  Database db = MakeDb();
  InvertedIndex idx;
  idx.Build(db);
  // p2 contains "search" twice but posts once.
  const auto& postings = idx.Lookup("search");
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_NE(postings[0], postings[1]);
}

TEST(InvertedIndexTest, IntColumnsNotIndexed) {
  Database db = MakeDb();
  InvertedIndex idx;
  idx.Build(db);
  // Years are INT columns; "2002" should not be indexed from them.
  EXPECT_EQ(idx.Lookup("2002").size(), 0u);
}

TEST(InvertedIndexTest, PostingsSortedByRid) {
  Database db = MakeDb();
  InvertedIndex idx;
  idx.Build(db);
  const auto& postings = idx.Lookup("search");
  for (size_t i = 1; i < postings.size(); ++i) {
    EXPECT_TRUE(postings[i - 1] < postings[i]);
  }
}

TEST(InvertedIndexTest, KeywordsWithPrefix) {
  Database db = MakeDb();
  InvertedIndex idx;
  idx.Build(db);
  auto kws = idx.KeywordsWithPrefix("sea");
  ASSERT_EQ(kws.size(), 1u);
  EXPECT_EQ(kws[0], "search");
}

TEST(InvertedIndexTest, Counts) {
  Database db = MakeDb();
  InvertedIndex idx;
  idx.Build(db);
  EXPECT_GT(idx.num_keywords(), 0u);
  EXPECT_GE(idx.num_postings(), idx.num_keywords());
}

TEST(InvertedIndexTest, AddTextIncremental) {
  // Incremental maintenance goes through the merge-refreeze patch: a new
  // layout with the added rows, while a copy taken before keeps the old.
  InvertedIndex idx = InvertedIndex::FromTexts({{"hello world", Rid{0, 0}}});
  const InvertedIndex before = idx;
  InvertedIndex::Patch patch;
  patch["hello"].add = {Rid{0, 1}};
  patch["again"].add = {Rid{0, 1}};
  idx.PatchPostings(patch);
  EXPECT_EQ(idx.Lookup("hello").size(), 2u);
  EXPECT_EQ(idx.Lookup("world").size(), 1u);
  EXPECT_EQ(idx.Lookup("again").size(), 1u);
  EXPECT_EQ(before.Lookup("hello").size(), 1u);
  EXPECT_TRUE(before.Lookup("again").empty());
}

}  // namespace
}  // namespace banks
