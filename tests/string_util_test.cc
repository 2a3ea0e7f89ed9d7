#include "util/string_util.h"

#include <gtest/gtest.h>

#include <limits>

namespace banks {
namespace {

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC dEf"), "abc def");
  EXPECT_EQ(ToLower(""), "");
  EXPECT_EQ(ToLower("123!@"), "123!@");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, SplitEmptyString) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, SplitTrailingSep) {
  auto parts = Split("x,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("banks:tuple", "banks:"));
  EXPECT_FALSE(StartsWith("ban", "banks"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringUtilTest, ContainsIgnoreCase) {
  EXPECT_TRUE(ContainsIgnoreCase("Computer Science", "SCIENCE"));
  EXPECT_TRUE(ContainsIgnoreCase("abc", ""));
  EXPECT_FALSE(ContainsIgnoreCase("short", "longer-needle"));
  EXPECT_FALSE(ContainsIgnoreCase("hello", "world"));
  EXPECT_TRUE(ContainsIgnoreCase("xyzzy", "ZZ"));
}

TEST(EditDistanceTest, Basics) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 5), 3);
  EXPECT_EQ(BoundedEditDistance("", "", 2), 0);
  EXPECT_EQ(BoundedEditDistance("abc", "abc", 2), 0);
  EXPECT_EQ(BoundedEditDistance("abc", "abd", 2), 1);
  EXPECT_EQ(BoundedEditDistance("abc", "ab", 2), 1);
}

TEST(EditDistanceTest, BoundExceeded) {
  // Distance is 3; with limit 1 we must get limit+1 = 2.
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 1), 2);
  // Length difference alone exceeds the bound.
  EXPECT_EQ(BoundedEditDistance("a", "abcdef", 2), 3);
}

TEST(EditDistanceTest, ExtremeLimits) {
  constexpr int kMax = std::numeric_limits<int>::max();
  // Limits past every possible distance give the exact distance, with no
  // overflow computing limit + 1.
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", kMax), 3);
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", kMax - 1), 3);
  EXPECT_EQ(BoundedEditDistance("", "abc", kMax), 3);
  EXPECT_EQ(BoundedEditDistance("", "", kMax), 0);
  // A negative limit is exceeded by every distance, even 0.
  EXPECT_EQ(BoundedEditDistance("abc", "abc", -1), 0);
  EXPECT_EQ(BoundedEditDistance("abc", "abd", -5), -4);
}

TEST(EditDistanceTest, Symmetry) {
  EXPECT_EQ(BoundedEditDistance("levy", "levi", 2),
            BoundedEditDistance("levi", "levy", 2));
}

}  // namespace
}  // namespace banks
