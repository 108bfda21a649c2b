#include "cf/relevance_estimator.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace fairrec {
namespace {

RatingMatrix MatrixFromTriples(const std::vector<RatingTriple>& triples) {
  RatingMatrixBuilder builder;
  EXPECT_TRUE(builder.AddAll(triples).ok());
  return std::move(builder.Build()).ValueOrDie();
}

TEST(RelevanceEstimatorTest, Equation1HandComputed) {
  // Peers 1 (sim 0.8, rated 5) and 2 (sim 0.4, rated 2):
  // relevance = (0.8*5 + 0.4*2) / (0.8 + 0.4) = 4.8 / 1.2 = 4.0
  const RatingMatrix m = MatrixFromTriples({{1, 0, 5}, {2, 0, 2}});
  const RelevanceEstimator estimator(&m);
  const std::vector<Peer> peers{{1, 0.8}, {2, 0.4}};
  const auto rel = estimator.Estimate(peers, 0);
  ASSERT_TRUE(rel.has_value());
  EXPECT_NEAR(*rel, 4.0, 1e-12);
}

TEST(RelevanceEstimatorTest, OnlyPeersWhoRatedCount) {
  const RatingMatrix m = MatrixFromTriples({{1, 0, 5}, {2, 1, 1}});
  const RelevanceEstimator estimator(&m);
  // Peer 2 rated a different item; only peer 1 contributes.
  const std::vector<Peer> peers{{1, 0.5}, {2, 0.9}};
  const auto rel = estimator.Estimate(peers, 0);
  ASSERT_TRUE(rel.has_value());
  EXPECT_NEAR(*rel, 5.0, 1e-12);
}

TEST(RelevanceEstimatorTest, UndefinedWhenNoPeerRated) {
  const RatingMatrix m = MatrixFromTriples({{1, 0, 5}});
  const RelevanceEstimator estimator(&m);
  EXPECT_FALSE(estimator.Estimate({{1, 0.5}}, 1).has_value());  // item 1 unrated
  EXPECT_FALSE(estimator.Estimate({}, 0).has_value());          // no peers
}

TEST(RelevanceEstimatorTest, UndefinedForInvalidItem) {
  const RatingMatrix m = MatrixFromTriples({{1, 0, 5}});
  const RelevanceEstimator estimator(&m);
  EXPECT_FALSE(estimator.Estimate({{1, 0.5}}, 99).has_value());
  EXPECT_FALSE(estimator.Estimate({{1, 0.5}}, -1).has_value());
}

TEST(RelevanceEstimatorTest, ZeroSimilarityMassIsUndefined) {
  const RatingMatrix m = MatrixFromTriples({{1, 0, 5}});
  const RelevanceEstimator estimator(&m);
  // A peer with zero weight contributes nothing; total weight 0 -> undefined.
  EXPECT_FALSE(estimator.Estimate({{1, 0.0}}, 0).has_value());
}

TEST(RelevanceEstimatorTest, RelevanceStaysWithinRatingScale) {
  const RatingMatrix m = MatrixFromTriples({{1, 0, 2}, {2, 0, 5}, {3, 0, 4}});
  const RelevanceEstimator estimator(&m);
  const auto rel = estimator.Estimate({{1, 0.3}, {2, 0.5}, {3, 0.2}}, 0);
  ASSERT_TRUE(rel.has_value());
  EXPECT_GE(*rel, kMinRating);
  EXPECT_LE(*rel, kMaxRating);
}

TEST(RelevanceEstimatorTest, EstimateAllMatchesPerItemEstimates) {
  Rng rng(55);
  RatingMatrixBuilder builder;
  for (UserId u = 0; u < 10; ++u) {
    for (ItemId i = 0; i < 15; ++i) {
      if (rng.NextBool(0.5)) {
        EXPECT_TRUE(
            builder.Add(u, i, static_cast<Rating>(rng.UniformInt(1, 5))).ok());
      }
    }
  }
  const RatingMatrix m = std::move(builder.Build()).ValueOrDie();
  const RelevanceEstimator estimator(&m);
  std::vector<Peer> peers;
  for (UserId u = 1; u < 10; ++u) {
    peers.push_back({u, rng.NextDouble() + 0.01});
  }
  std::vector<ItemId> items;
  for (ItemId i = 0; i < 15; ++i) items.push_back(i);

  RelevanceEstimator::Scratch scratch;
  const std::vector<ScoredItem> batch =
      estimator.EstimateAll(peers, items, scratch);
  size_t cursor = 0;
  for (const ItemId i : items) {
    const auto single = estimator.Estimate(peers, i);
    if (single.has_value()) {
      ASSERT_LT(cursor, batch.size());
      EXPECT_EQ(batch[cursor].item, i);
      EXPECT_NEAR(batch[cursor].score, *single, 1e-12);
      ++cursor;
    }
  }
  EXPECT_EQ(cursor, batch.size());  // no extra items in the batch
}

TEST(RelevanceEstimatorTest, EstimateAllEmptyInputs) {
  const RatingMatrix m = MatrixFromTriples({{0, 0, 3}});
  const RelevanceEstimator estimator(&m);
  RelevanceEstimator::Scratch scratch;
  EXPECT_TRUE(estimator.EstimateAll({}, {0}, scratch).empty());
  EXPECT_TRUE(estimator.EstimateAll({{0, 0.5}}, {}, scratch).empty());
}

}  // namespace
}  // namespace fairrec
