#include "core/group_context.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/core/test_fixtures.h"

namespace fairrec {
namespace {

using testing_fixtures::ContextFromDense;
using testing_fixtures::kNaN;
using testing_fixtures::MembersFromDense;

TEST(GroupContextTest, RejectsEmptyMembers) {
  EXPECT_TRUE(GroupContext::Build({}, {}).status().IsInvalidArgument());
}

TEST(GroupContextTest, RejectsNonPositiveTopK) {
  GroupContextOptions options;
  options.top_k = 0;
  EXPECT_TRUE(GroupContext::Build(MembersFromDense({{3.0}}), options)
                  .status()
                  .IsInvalidArgument());
}

TEST(GroupContextTest, RejectsUnsortedRelevanceLists) {
  MemberRelevance member;
  member.user = 0;
  member.relevance = {{2, 3.0}, {1, 4.0}};  // descending item ids
  EXPECT_TRUE(
      GroupContext::Build({member}, {}).status().IsInvalidArgument());
}

TEST(GroupContextTest, AverageAggregationPerItem) {
  const GroupContext ctx = ContextFromDense({{4.0, 2.0}, {2.0, 4.0}});
  ASSERT_EQ(ctx.num_candidates(), 2);
  EXPECT_DOUBLE_EQ(ctx.candidate(0).group_relevance, 3.0);
  EXPECT_DOUBLE_EQ(ctx.candidate(1).group_relevance, 3.0);
  EXPECT_EQ(ctx.group_size(), 2);
}

TEST(GroupContextTest, MinimumAggregationActsAsVeto) {
  GroupContextOptions options;
  options.aggregation = AggregationKind::kMinimum;
  const GroupContext ctx = ContextFromDense({{5.0, 4.0}, {1.0, 3.9}}, options);
  EXPECT_DOUBLE_EQ(ctx.candidate(0).group_relevance, 1.0);
  EXPECT_DOUBLE_EQ(ctx.candidate(1).group_relevance, 3.9);
}

TEST(GroupContextTest, RequireAllMembersDropsPartialItems) {
  // Item 1 undefined for member 1 -> dropped under the default policy.
  const GroupContext ctx = ContextFromDense({{4.0, 5.0}, {3.0, kNaN}});
  ASSERT_EQ(ctx.num_candidates(), 1);
  EXPECT_EQ(ctx.candidate(0).item, 0);
}

TEST(GroupContextTest, PartialItemsKeptWhenPolicyRelaxed) {
  GroupContextOptions options;
  options.require_all_members = false;
  const GroupContext ctx = ContextFromDense({{4.0, 5.0}, {3.0, kNaN}}, options);
  ASSERT_EQ(ctx.num_candidates(), 2);
  // Aggregation over the defined subset only: item 1 has just member 0.
  EXPECT_DOUBLE_EQ(ctx.candidate(1).group_relevance, 5.0);
  EXPECT_TRUE(std::isnan(ctx.candidate(1).member_relevance[1]));
}

TEST(GroupContextTest, CandidateIndexLookup) {
  const GroupContext ctx = ContextFromDense({{4.0, kNaN, 5.0}, {3.0, kNaN, 2.0}});
  EXPECT_EQ(ctx.CandidateIndexOf(0), 0);
  EXPECT_EQ(ctx.CandidateIndexOf(2), 1);
  EXPECT_EQ(ctx.CandidateIndexOf(1), -1);   // dropped (both undefined)
  EXPECT_EQ(ctx.CandidateIndexOf(99), -1);  // never existed
}

TEST(GroupContextTest, TopKSetsMatchMemberScores) {
  GroupContextOptions options;
  options.top_k = 2;
  const GroupContext ctx =
      ContextFromDense({{5.0, 4.0, 3.0, 2.0}, {2.0, 3.0, 4.0, 5.0}}, options);
  // Member 0's A_u = items {0, 1}; member 1's = items {3, 2}.
  EXPECT_TRUE(ctx.InMemberTopK(0, 0));
  EXPECT_TRUE(ctx.InMemberTopK(0, 1));
  EXPECT_FALSE(ctx.InMemberTopK(0, 2));
  EXPECT_FALSE(ctx.InMemberTopK(0, 3));
  EXPECT_TRUE(ctx.InMemberTopK(1, 3));
  EXPECT_TRUE(ctx.InMemberTopK(1, 2));
  EXPECT_FALSE(ctx.InMemberTopK(1, 0));
  ASSERT_EQ(ctx.MemberTopK(0).size(), 2u);
  EXPECT_EQ(ctx.MemberTopK(0)[0].item, 0);
  EXPECT_EQ(ctx.MemberTopK(1)[0].item, 3);
}

TEST(GroupContextTest, TopKLargerThanCandidatesCoversAll) {
  GroupContextOptions options;
  options.top_k = 100;
  const GroupContext ctx = ContextFromDense({{3.0, 4.0}, {4.0, 3.0}}, options);
  for (int32_t m = 0; m < 2; ++m) {
    for (int32_t c = 0; c < 2; ++c) EXPECT_TRUE(ctx.InMemberTopK(m, c));
  }
}

TEST(GroupContextTest, RestrictToTopMKeepsBestGroupRelevance) {
  const GroupContext ctx =
      ContextFromDense({{5.0, 1.0, 4.0, 2.0}, {5.0, 1.0, 4.0, 2.0}});
  const GroupContext top2 = ctx.RestrictToTopM(2);
  ASSERT_EQ(top2.num_candidates(), 2);
  // Best two by group relevance are items 0 (5.0) and 2 (4.0), item order
  // preserved ascending.
  EXPECT_EQ(top2.candidate(0).item, 0);
  EXPECT_EQ(top2.candidate(1).item, 2);
}

TEST(GroupContextTest, RestrictToTopMRebuildsTopKWithinUniverse) {
  GroupContextOptions options;
  options.top_k = 1;
  // Member 1's favourite (item 3) falls outside the top-2 by group relevance.
  const GroupContext ctx =
      ContextFromDense({{5.0, 4.9, 1.0, 1.2}, {4.0, 4.2, 1.0, 4.4}}, options);
  const GroupContext top2 = ctx.RestrictToTopM(2);
  ASSERT_EQ(top2.num_candidates(), 2);
  // Within {0, 1}: member 1's A_u must be recomputed to item 1 (4.2 > 4.0).
  EXPECT_TRUE(top2.InMemberTopK(1, top2.CandidateIndexOf(1)));
  EXPECT_FALSE(top2.InMemberTopK(1, top2.CandidateIndexOf(0)));
}

TEST(GroupContextTest, RestrictToTopMLargerThanPoolIsCopy) {
  const GroupContext ctx = ContextFromDense({{3.0, 4.0}});
  const GroupContext copy = ctx.RestrictToTopM(100);
  EXPECT_EQ(copy.num_candidates(), ctx.num_candidates());
}

TEST(GroupContextTest, RestrictTieBreaksByItemId) {
  const GroupContext ctx = ContextFromDense({{3.0, 3.0, 3.0}});
  const GroupContext top2 = ctx.RestrictToTopM(2);
  ASSERT_EQ(top2.num_candidates(), 2);
  EXPECT_EQ(top2.candidate(0).item, 0);
  EXPECT_EQ(top2.candidate(1).item, 1);
}

TEST(GroupContextTest, MembersRecorded) {
  const GroupContext ctx = ContextFromDense({{1.0}, {2.0}, {3.0}});
  EXPECT_EQ(ctx.members(), (Group{0, 1, 2}));
}

}  // namespace
}  // namespace fairrec
