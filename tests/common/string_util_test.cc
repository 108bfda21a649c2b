#include "common/string_util.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace fairrec {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, AdjacentDelimitersYieldEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
}

TEST(SplitTest, LeadingAndTrailingDelimiters) {
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, StripsWhitespaceBothEnds) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("nochange"), "nochange");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(ToLowerTest, Lowercases) {
  EXPECT_EQ(ToLower("HeLLo 123"), "hello 123");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("fairness", "fair"));
  EXPECT_FALSE(StartsWith("fair", "fairness"));
  EXPECT_TRUE(EndsWith("fairness", "ness"));
  EXPECT_FALSE(EndsWith("ness", "fairness"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(FormatDoubleTest, FixedPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(FormatWithThousandsTest, GroupsDigits) {
  EXPECT_EQ(FormatWithThousands(0), "0");
  EXPECT_EQ(FormatWithThousands(999), "999");
  EXPECT_EQ(FormatWithThousands(1000), "1,000");
  EXPECT_EQ(FormatWithThousands(322371457), "322,371,457");
  EXPECT_EQ(FormatWithThousands(-1234567), "-1,234,567");
}

// Known answers for the strict parsers: the whole token must be a number
// that fits the type.
TEST(ParseInt64Test, KnownAnswers) {
  EXPECT_EQ(*ParseInt64("12"), 12);
  EXPECT_EQ(*ParseInt64("-3"), -3);
  EXPECT_EQ(*ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_TRUE(ParseInt64("1e3").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("abc").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("12x").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64(" 12").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("9223372036854775808").status().IsInvalidArgument());
}

TEST(ParseDoubleTest, KnownAnswers) {
  EXPECT_EQ(*ParseDouble("12"), 12.0);
  EXPECT_EQ(*ParseDouble("-3"), -3.0);
  EXPECT_EQ(*ParseDouble("1e3"), 1000.0);
  EXPECT_EQ(*ParseDouble("0.55"), 0.55);
  EXPECT_EQ(*ParseDouble("9223372036854775808"), 9223372036854775808.0);
  EXPECT_TRUE(ParseDouble("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseDouble("abc").status().IsInvalidArgument());
  EXPECT_TRUE(ParseDouble("12x").status().IsInvalidArgument());
  EXPECT_TRUE(ParseDouble("1e999").status().IsInvalidArgument());
}

TEST(ParseIntTest, NarrowsWithARangeCheck) {
  EXPECT_EQ(*ParseInt<int32_t>("-2147483648"), INT32_MIN);
  EXPECT_TRUE(ParseInt<int32_t>("4294967296").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt<int32_t>("2147483648").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt<uint64_t>("-1").status().IsInvalidArgument());
  EXPECT_EQ(*ParseInt<uint64_t>("7"), 7u);
}

}  // namespace
}  // namespace fairrec
