#ifndef FAIRREC_MF_MATRIX_FACTORIZATION_H_
#define FAIRREC_MF_MATRIX_FACTORIZATION_H_

#include <cstdint>
#include <vector>

#include "cf/recommender.h"
#include "common/result.h"
#include "ratings/rating_matrix.h"
#include "ratings/types.h"

namespace fairrec {

/// Hyperparameters for the SGD matrix-factorization trainer.
struct MfConfig {
  int32_t num_factors = 16;
  int32_t num_epochs = 30;
  double learning_rate = 0.01;
  double regularization = 0.05;
  /// Factor entries initialized uniformly in [-init_scale, init_scale].
  double init_scale = 0.1;
  /// Learn per-user and per-item bias terms in addition to the global mean.
  bool use_biases = true;
  /// Reshuffle the training triples before every epoch.
  bool shuffle_each_epoch = true;
  uint64_t seed = 17;
};

/// Biased matrix factorization trained with plain SGD:
///
///   r̂(u, i) = µ + b_u + b_i + p_u · q_i
///
/// This is the "machine learning approaches for recommending ... useful
/// information" the paper leaves as future work (§VIII), implemented so it
/// can slot into the same group-recommendation flow as the Eq. 1 estimator:
/// RelevanceForGroup() produces MemberRelevance tables consumable by
/// GroupContext::Build, and the ablation benches compare held-out accuracy
/// of the two estimators.
class MatrixFactorizationModel {
 public:
  /// Trains on every rating in `matrix`. If `epoch_rmse` is non-null it
  /// receives the train-set RMSE after each epoch (monitoring/tests).
  /// Fails on an empty matrix or non-positive hyperparameters.
  static Result<MatrixFactorizationModel> Train(
      const RatingMatrix& matrix, const MfConfig& config = {},
      std::vector<double>* epoch_rmse = nullptr);

  /// r̂(u, i), clamped to the paper's [1, 5] rating scale. Ids outside the
  /// training grid predict the global mean (clamped).
  double Predict(UserId u, ItemId i) const;

  /// Unclamped model output (diagnostics).
  double PredictRaw(UserId u, ItemId i) const;

  /// Per-member relevance over the items unrated by every group member —
  /// the MF counterpart of cf::Recommender::RelevanceForGroup. MF predicts
  /// every cell, so peers are not involved and `peers` is left empty.
  Result<std::vector<MemberRelevance>> RelevanceForGroup(
      const RatingMatrix& matrix, const Group& group) const;

  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return num_items_; }
  int32_t num_factors() const { return config_.num_factors; }
  double global_mean() const { return global_mean_; }
  const MfConfig& config() const { return config_; }

 private:
  MatrixFactorizationModel() = default;

  std::span<const double> UserFactors(UserId u) const;
  std::span<const double> ItemFactors(ItemId i) const;

  MfConfig config_;
  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  double global_mean_ = 0.0;
  std::vector<double> user_factors_;  // num_users x num_factors, row-major
  std::vector<double> item_factors_;  // num_items x num_factors, row-major
  std::vector<double> user_bias_;
  std::vector<double> item_bias_;
};

}  // namespace fairrec

#endif  // FAIRREC_MF_MATRIX_FACTORIZATION_H_
