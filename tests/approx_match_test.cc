#include "index/approx_match.h"

#include <gtest/gtest.h>

namespace banks {
namespace {

InvertedIndex MakeIndex() {
  return InvertedIndex::FromTexts(
      {{"levy levi level leventhal sarawagi", Rid{0, 0}},
       {"transaction transactions", Rid{0, 1}}});
}

TEST(ApproxMatchTest, DisabledReturnsExactOnly) {
  InvertedIndex idx = MakeIndex();
  ApproxMatchOptions opts;  // enable = false
  auto exp = ExpandKeyword(idx, "levy", opts);
  ASSERT_EQ(exp.size(), 1u);
  EXPECT_EQ(exp[0], "levy");
}

TEST(ApproxMatchTest, DisabledMissingKeywordEmpty) {
  InvertedIndex idx = MakeIndex();
  ApproxMatchOptions opts;
  EXPECT_TRUE(ExpandKeyword(idx, "nothere", opts).empty());
}

TEST(ApproxMatchTest, FuzzyFindsCloseKeywords) {
  InvertedIndex idx = MakeIndex();
  ApproxMatchOptions opts;
  opts.enable = true;
  opts.max_edit_distance = 1;
  auto exp = ExpandKeyword(idx, "levy", opts);
  ASSERT_GE(exp.size(), 2u);
  EXPECT_EQ(exp[0], "levy");            // exact first
  EXPECT_EQ(exp[1], "levi");            // distance 1
}

TEST(ApproxMatchTest, MissingKeywordStillExpands) {
  InvertedIndex idx = MakeIndex();
  ApproxMatchOptions opts;
  opts.enable = true;
  opts.max_edit_distance = 1;
  auto exp = ExpandKeyword(idx, "lev", opts);  // not in index
  ASSERT_FALSE(exp.empty());
  // levi/levy at distance 1; "level" at distance 2 excluded unless prefix.
  EXPECT_EQ(exp[0], "levi");  // lexicographic among distance-1
}

TEST(ApproxMatchTest, PrefixExpansion) {
  InvertedIndex idx = MakeIndex();
  ApproxMatchOptions opts;
  opts.enable = true;
  opts.max_edit_distance = 0;
  opts.allow_prefix = true;
  auto exp = ExpandKeyword(idx, "transaction", opts);
  ASSERT_EQ(exp.size(), 2u);
  EXPECT_EQ(exp[0], "transaction");
  EXPECT_EQ(exp[1], "transactions");  // prefix hit ranks after exact
}

TEST(ApproxMatchTest, MaxExpansionsCap) {
  InvertedIndex idx = MakeIndex();
  ApproxMatchOptions opts;
  opts.enable = true;
  opts.max_edit_distance = 3;
  opts.max_expansions = 2;
  auto exp = ExpandKeyword(idx, "levy", opts);
  EXPECT_LE(exp.size(), 2u);
}

TEST(ApproxMatchTest, EmptyKeyword) {
  InvertedIndex idx = MakeIndex();
  ApproxMatchOptions opts;
  opts.enable = true;
  EXPECT_TRUE(ExpandKeyword(idx, "!!!", opts).empty());
}

}  // namespace
}  // namespace banks
