// GroupContext against an independent oracle: a naive per-item std::map
// build of Def. 2 and the A_u sets, compared bit for bit (NaNs included) on
// seeded random member lists.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "cf/top_k.h"
#include "common/random.h"
#include "core/aggregation.h"
#include "core/group_context.h"

namespace fairrec {
namespace {

constexpr double kUndefined = std::numeric_limits<double>::quiet_NaN();

/// The reference context: one row per candidate, ascending item id.
struct NaiveContext {
  std::vector<ItemId> items;
  std::vector<double> group_relevance;
  std::vector<std::vector<double>> member_relevance;  // [candidate][member]
  std::vector<std::vector<ScoredItem>> top_k;          // [member]: A_u
  std::vector<std::vector<bool>> in_top_k;             // [member][candidate]
};

void NaiveTopK(int32_t k, size_t n, NaiveContext* ctx) {
  ctx->top_k.assign(n, {});
  ctx->in_top_k.assign(n, std::vector<bool>(ctx->items.size(), false));
  for (size_t m = 0; m < n; ++m) {
    std::vector<ScoredItem> defined;
    for (size_t c = 0; c < ctx->items.size(); ++c) {
      const double s = ctx->member_relevance[c][m];
      if (!std::isnan(s)) defined.push_back({ctx->items[c], s});
    }
    ctx->top_k[m] = SelectTopK(defined, k);
    for (const ScoredItem& s : ctx->top_k[m]) {
      const auto it =
          std::find(ctx->items.begin(), ctx->items.end(), s.item);
      ctx->in_top_k[m][static_cast<size_t>(it - ctx->items.begin())] = true;
    }
  }
}

NaiveContext NaiveBuild(const std::vector<MemberRelevance>& members,
                        const GroupContextOptions& options) {
  const size_t n = members.size();
  std::map<ItemId, std::vector<double>> rows;
  for (size_t m = 0; m < n; ++m) {
    for (const ScoredItem& s : members[m].relevance) {
      auto [it, inserted] = rows.try_emplace(s.item);
      if (inserted) it->second.assign(n, kUndefined);
      it->second[m] = s.score;
    }
  }
  NaiveContext ctx;
  for (auto& [item, scores] : rows) {
    std::vector<double> defined;
    for (const double s : scores) {
      if (!std::isnan(s)) defined.push_back(s);
    }
    if (options.require_all_members && defined.size() != n) continue;
    ctx.items.push_back(item);
    ctx.group_relevance.push_back(Aggregate(defined, options.aggregation,
                                            options.aggregation_params));
    ctx.member_relevance.push_back(scores);
  }
  NaiveTopK(options.top_k, n, &ctx);
  return ctx;
}

NaiveContext NaiveRestrict(const NaiveContext& full, int32_t m, int32_t k,
                           size_t n) {
  std::vector<size_t> order(full.items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&full](size_t a, size_t b) {
    if (full.group_relevance[a] != full.group_relevance[b]) {
      return full.group_relevance[a] > full.group_relevance[b];
    }
    return full.items[a] < full.items[b];
  });
  order.resize(std::min(order.size(), static_cast<size_t>(std::max(m, 0))));
  std::sort(order.begin(), order.end());
  NaiveContext out;
  for (const size_t c : order) {
    out.items.push_back(full.items[c]);
    out.group_relevance.push_back(full.group_relevance[c]);
    out.member_relevance.push_back(full.member_relevance[c]);
  }
  NaiveTopK(k, n, &out);
  return out;
}

/// The best defined relevance in a member's column, scanned in candidate
/// order (the first of equal maxima wins), or nullopt.
std::optional<double> NaiveColumnMax(const NaiveContext& ctx, size_t m) {
  std::optional<double> best;
  for (const std::vector<double>& row : ctx.member_relevance) {
    if (std::isnan(row[m])) continue;
    best = best ? std::max(*best, row[m]) : row[m];
  }
  return best;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectMatchesOracle(const GroupContext& got, const NaiveContext& want) {
  const auto n = static_cast<size_t>(got.group_size());
  ASSERT_EQ(static_cast<size_t>(got.num_candidates()), want.items.size());
  for (int32_t c = 0; c < got.num_candidates(); ++c) {
    const GroupCandidate row = got.candidate(c);
    const auto cc = static_cast<size_t>(c);
    EXPECT_EQ(row.item, want.items[cc]);
    EXPECT_EQ(got.CandidateIndexOf(row.item), c);
    EXPECT_EQ(Bits(row.group_relevance), Bits(want.group_relevance[cc]))
        << "item " << row.item;
    ASSERT_EQ(row.member_relevance.size(), n);
    for (size_t m = 0; m < n; ++m) {
      EXPECT_EQ(Bits(row.member_relevance[m]),
                Bits(want.member_relevance[cc][m]))
          << "item " << row.item << " member " << m;
    }
  }
  for (size_t m = 0; m < n; ++m) {
    const auto member = static_cast<int32_t>(m);
    const std::vector<ScoredItem>& a_u = got.MemberTopK(member);
    ASSERT_EQ(a_u.size(), want.top_k[m].size()) << "member " << m;
    for (size_t j = 0; j < a_u.size(); ++j) {
      EXPECT_EQ(a_u[j].item, want.top_k[m][j].item);
      EXPECT_EQ(Bits(a_u[j].score), Bits(want.top_k[m][j].score));
    }
    for (int32_t c = 0; c < got.num_candidates(); ++c) {
      EXPECT_EQ(got.InMemberTopK(member, c),
                want.in_top_k[m][static_cast<size_t>(c)])
          << "member " << m << " candidate " << c;
    }
    const std::optional<double> best = got.BestRelevance(member);
    const std::optional<double> column_max = NaiveColumnMax(want, m);
    ASSERT_EQ(best.has_value(), column_max.has_value()) << "member " << m;
    if (best) {
      EXPECT_EQ(Bits(*best), Bits(*column_max)) << "member " << m;
    }
  }
}

/// Random strictly ascending member lists over a gappy item universe.
/// Scores are quantized to halves in [-1, 5] so ties (and signed zeros) are
/// common; some members get an empty list.
std::vector<MemberRelevance> RandomMembers(Rng& rng, int32_t num_members) {
  const auto num_items = static_cast<ItemId>(rng.UniformInt(0, 40));
  const double density = rng.UniformReal(0.2, 1.0);
  std::vector<MemberRelevance> members(static_cast<size_t>(num_members));
  for (int32_t m = 0; m < num_members; ++m) {
    MemberRelevance& member = members[static_cast<size_t>(m)];
    member.user = static_cast<UserId>(100 + m);
    if (rng.NextBool(0.1)) continue;  // empty list
    for (ItemId item = 0; item < num_items; ++item) {
      if (!rng.NextBool(density)) continue;
      const double score = std::round(rng.UniformReal(-1.0, 5.0) * 2.0) / 2.0;
      member.relevance.push_back({item * 3, score});
    }
  }
  return members;
}

constexpr AggregationKind kAllKinds[] = {
    AggregationKind::kMinimum, AggregationKind::kAverage,
    AggregationKind::kMaximum, AggregationKind::kMedian,
    AggregationKind::kMiseryBlend};

TEST(GroupContextOracleTest, BuildAndRestrictMatchNaiveMapBuildBitForBit) {
  Rng rng(0x0c0ffee);
  int32_t contexts = 0;
  for (int32_t trial = 0; trial < 60; ++trial) {
    const auto num_members = static_cast<int32_t>(rng.UniformInt(1, 5));
    const std::vector<MemberRelevance> members =
        RandomMembers(rng, num_members);
    for (const bool require_all : {true, false}) {
      for (const AggregationKind kind : kAllKinds) {
        for (const int32_t top_k : {1, 3, 1000}) {
          GroupContextOptions options;
          options.aggregation = kind;
          options.aggregation_params.misery_alpha = rng.UniformReal(0.0, 1.0);
          options.top_k = top_k;
          options.require_all_members = require_all;
          SCOPED_TRACE(testing::Message()
                       << "trial " << trial << " members " << num_members
                       << " require_all " << require_all << " kind "
                       << AggregationKindToString(kind) << " top_k " << top_k);
          const auto ctx = GroupContext::Build(members, options);
          ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
          const NaiveContext want = NaiveBuild(members, options);
          ExpectMatchesOracle(*ctx, want);
          ++contexts;

          const int32_t pool = ctx->num_candidates();
          for (const int32_t m : {0, 1, pool / 2, pool - 1, pool, pool + 5}) {
            SCOPED_TRACE(testing::Message() << "restrict m=" << m);
            ExpectMatchesOracle(
                ctx->RestrictToTopM(m),
                NaiveRestrict(want, m, top_k, members.size()));
          }
        }
      }
    }
  }
  EXPECT_EQ(contexts, 60 * 2 * 5 * 3);
}

TEST(GroupContextOracleTest, SingleMemberAndAllEmptyListsMatch) {
  Rng rng(7);
  MemberRelevance single;
  single.user = 3;
  for (ItemId item = 0; item < 25; ++item) {
    if (rng.NextBool(0.6)) {
      single.relevance.push_back({item, std::round(rng.UniformReal(0, 5))});
    }
  }
  std::vector<MemberRelevance> empty(3);
  for (size_t m = 0; m < empty.size(); ++m) {
    empty[m].user = static_cast<UserId>(m);
  }
  for (const std::vector<MemberRelevance>& members :
       {std::vector<MemberRelevance>{single}, empty}) {
    for (const bool require_all : {true, false}) {
      GroupContextOptions options;
      options.top_k = 3;
      options.require_all_members = require_all;
      const auto ctx = GroupContext::Build(members, options);
      ASSERT_TRUE(ctx.ok());
      ExpectMatchesOracle(*ctx, NaiveBuild(members, options));
    }
  }
}

TEST(GroupContextOracleTest, BestRelevanceIsNoneForAMemberWithoutScores) {
  MemberRelevance scored;
  scored.user = 0;
  scored.relevance = {{1, 2.0}, {4, 3.5}};
  MemberRelevance blank;
  blank.user = 1;
  GroupContextOptions options;
  options.require_all_members = false;
  const auto ctx = GroupContext::Build({scored, blank}, options);
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(ctx->BestRelevance(0), std::optional<double>(3.5));
  EXPECT_EQ(ctx->BestRelevance(1), std::nullopt);
}

}  // namespace
}  // namespace fairrec
