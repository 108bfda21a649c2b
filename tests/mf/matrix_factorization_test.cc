#include "mf/matrix_factorization.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/group_context.h"
#include "eval/accuracy.h"
#include "ratings/splits.h"

namespace fairrec {
namespace {

/// Low-rank ground truth: rating(u, i) = clamp(round(base + u_sig * i_sig)).
RatingMatrix LowRankMatrix(int32_t users, int32_t items, double density,
                           uint64_t seed) {
  Rng rng(seed);
  std::vector<double> user_signal(static_cast<size_t>(users));
  std::vector<double> item_signal(static_cast<size_t>(items));
  for (double& x : user_signal) x = rng.UniformReal(-1.0, 1.0);
  for (double& x : item_signal) x = rng.UniformReal(-1.5, 1.5);
  RatingMatrixBuilder builder;
  builder.Reserve(users, items);
  for (UserId u = 0; u < users; ++u) {
    for (ItemId i = 0; i < items; ++i) {
      if (!rng.NextBool(density)) continue;
      const double raw = 3.0 + user_signal[static_cast<size_t>(u)] *
                                   item_signal[static_cast<size_t>(i)] * 2.0;
      const double stars = std::clamp(std::round(raw), 1.0, 5.0);
      EXPECT_TRUE(builder.Add(u, i, stars).ok());
    }
  }
  return std::move(builder.Build()).ValueOrDie();
}

MfConfig FastConfig() {
  MfConfig config;
  config.num_factors = 8;
  config.num_epochs = 25;
  config.learning_rate = 0.02;
  config.regularization = 0.02;
  config.seed = 5;
  return config;
}

TEST(MatrixFactorizationTest, ValidatesConfigAndInput) {
  const RatingMatrix empty = std::move(RatingMatrixBuilder().Build()).ValueOrDie();
  EXPECT_TRUE(MatrixFactorizationModel::Train(empty).status().IsInvalidArgument());
  const RatingMatrix m = LowRankMatrix(10, 10, 0.5, 1);
  MfConfig bad = FastConfig();
  bad.num_factors = 0;
  EXPECT_TRUE(MatrixFactorizationModel::Train(m, bad).status().IsInvalidArgument());
  bad = FastConfig();
  bad.num_epochs = 0;
  EXPECT_TRUE(MatrixFactorizationModel::Train(m, bad).status().IsInvalidArgument());
  bad = FastConfig();
  bad.learning_rate = 0.0;
  EXPECT_TRUE(MatrixFactorizationModel::Train(m, bad).status().IsInvalidArgument());
  bad = FastConfig();
  bad.regularization = -1.0;
  EXPECT_TRUE(MatrixFactorizationModel::Train(m, bad).status().IsInvalidArgument());
}

TEST(MatrixFactorizationTest, TrainRmseDecreasesAcrossEpochs) {
  const RatingMatrix m = LowRankMatrix(60, 50, 0.4, 2);
  std::vector<double> rmse;
  const auto model = MatrixFactorizationModel::Train(m, FastConfig(), &rmse);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(rmse.size(), 25u);
  EXPECT_LT(rmse.back(), rmse.front());
  EXPECT_LT(rmse.back(), 1.0);  // fits a genuinely low-rank signal
}

TEST(MatrixFactorizationTest, PredictionsStayOnScale) {
  const RatingMatrix m = LowRankMatrix(40, 30, 0.4, 3);
  const auto model =
      std::move(MatrixFactorizationModel::Train(m, FastConfig())).ValueOrDie();
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const auto u = static_cast<UserId>(rng.UniformInt(0, 39));
    const auto i = static_cast<ItemId>(rng.UniformInt(0, 29));
    const double p = model.Predict(u, i);
    EXPECT_GE(p, kMinRating);
    EXPECT_LE(p, kMaxRating);
  }
}

TEST(MatrixFactorizationTest, OutOfGridPredictsGlobalMean) {
  const RatingMatrix m = LowRankMatrix(10, 10, 0.6, 4);
  const auto model =
      std::move(MatrixFactorizationModel::Train(m, FastConfig())).ValueOrDie();
  EXPECT_DOUBLE_EQ(model.PredictRaw(-1, 0), model.global_mean());
  EXPECT_DOUBLE_EQ(model.PredictRaw(0, 999), model.global_mean());
}

TEST(MatrixFactorizationTest, DeterministicInSeed) {
  const RatingMatrix m = LowRankMatrix(30, 25, 0.4, 5);
  const auto a = std::move(MatrixFactorizationModel::Train(m, FastConfig())).ValueOrDie();
  const auto b = std::move(MatrixFactorizationModel::Train(m, FastConfig())).ValueOrDie();
  for (UserId u = 0; u < 30; u += 7) {
    for (ItemId i = 0; i < 25; i += 5) {
      EXPECT_DOUBLE_EQ(a.PredictRaw(u, i), b.PredictRaw(u, i));
    }
  }
}

TEST(MatrixFactorizationTest, BeatsGlobalMeanOnHeldOutData) {
  const RatingMatrix full = LowRankMatrix(120, 80, 0.3, 6);
  const TrainTestSplit split =
      std::move(RandomHoldoutSplit(full, 0.2, 7)).ValueOrDie();
  const auto model =
      std::move(MatrixFactorizationModel::Train(split.train, FastConfig()))
          .ValueOrDie();

  const AccuracyStats mf = EvaluatePredictor(
      split.test,
      [&model](UserId u, ItemId i) { return model.Predict(u, i); });
  const double mean = model.global_mean();
  const AccuracyStats baseline = EvaluatePredictor(
      split.test, [mean](UserId, ItemId) { return mean; });

  EXPECT_DOUBLE_EQ(mf.coverage, 1.0);  // MF predicts every cell
  EXPECT_LT(mf.rmse, baseline.rmse);   // and beats the constant baseline
}

TEST(MatrixFactorizationTest, BiasesOffStillTrains) {
  const RatingMatrix m = LowRankMatrix(30, 30, 0.4, 8);
  MfConfig config = FastConfig();
  config.use_biases = false;
  std::vector<double> rmse;
  const auto model = MatrixFactorizationModel::Train(m, config, &rmse);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(rmse.back(), rmse.front());
}

TEST(MatrixFactorizationTest, RelevanceForGroupShapesMatchCfPath) {
  const RatingMatrix m = LowRankMatrix(50, 40, 0.35, 9);
  const auto model =
      std::move(MatrixFactorizationModel::Train(m, FastConfig())).ValueOrDie();
  const Group group{1, 5, 9};
  const auto members = model.RelevanceForGroup(m, group);
  ASSERT_TRUE(members.ok());
  ASSERT_EQ(members->size(), 3u);
  const std::vector<ItemId> candidates = m.ItemsUnratedByAll(group);
  for (const MemberRelevance& member : *members) {
    // MF scores every candidate (no abstention).
    EXPECT_EQ(member.relevance.size(), candidates.size());
    EXPECT_TRUE(member.peers.empty());
    for (size_t i = 1; i < member.relevance.size(); ++i) {
      EXPECT_LT(member.relevance[i - 1].item, member.relevance[i].item);
    }
  }
  // The tables feed GroupContext::Build directly.
  GroupContextOptions options;
  options.top_k = 6;
  const auto context = GroupContext::Build(*members, options);
  ASSERT_TRUE(context.ok());
  EXPECT_EQ(context->num_candidates(), static_cast<int32_t>(candidates.size()));
  for (int32_t member = 0; member < context->group_size(); ++member) {
    EXPECT_LE(context->MemberTopK(member).size(), 6u);
  }
}

TEST(MatrixFactorizationTest, RelevanceForGroupValidatesGroup) {
  const RatingMatrix m = LowRankMatrix(20, 20, 0.5, 10);
  const auto model =
      std::move(MatrixFactorizationModel::Train(m, FastConfig())).ValueOrDie();
  EXPECT_TRUE(model.RelevanceForGroup(m, {}).status().IsInvalidArgument());
  EXPECT_TRUE(model.RelevanceForGroup(m, {0, 0}).status().IsInvalidArgument());
  EXPECT_TRUE(model.RelevanceForGroup(m, {999}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace fairrec
