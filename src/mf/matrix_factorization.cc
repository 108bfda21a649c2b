#include "mf/matrix_factorization.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <unordered_set>

#include "common/logging.h"
#include "common/random.h"

namespace fairrec {

std::span<const double> MatrixFactorizationModel::UserFactors(UserId u) const {
  const auto k = static_cast<size_t>(config_.num_factors);
  return {user_factors_.data() + static_cast<size_t>(u) * k, k};
}

std::span<const double> MatrixFactorizationModel::ItemFactors(ItemId i) const {
  const auto k = static_cast<size_t>(config_.num_factors);
  return {item_factors_.data() + static_cast<size_t>(i) * k, k};
}

Result<MatrixFactorizationModel> MatrixFactorizationModel::Train(
    const RatingMatrix& matrix, const MfConfig& config,
    std::vector<double>* epoch_rmse) {
  if (matrix.num_ratings() == 0) {
    return Status::InvalidArgument("cannot train on an empty rating matrix");
  }
  if (config.num_factors <= 0) {
    return Status::InvalidArgument("num_factors must be positive");
  }
  if (config.num_epochs <= 0) {
    return Status::InvalidArgument("num_epochs must be positive");
  }
  if (config.learning_rate <= 0.0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  if (config.regularization < 0.0) {
    return Status::InvalidArgument("regularization must be non-negative");
  }

  MatrixFactorizationModel model;
  model.config_ = config;
  model.num_users_ = matrix.num_users();
  model.num_items_ = matrix.num_items();

  std::vector<RatingTriple> triples = matrix.ToTriples();
  double sum = 0.0;
  for (const RatingTriple& t : triples) sum += t.value;
  model.global_mean_ = sum / static_cast<double>(triples.size());

  Rng rng(config.seed);
  const auto k = static_cast<size_t>(config.num_factors);
  auto init = [&rng, &config](std::vector<double>& v, size_t n) {
    v.resize(n);
    for (double& x : v) x = rng.UniformReal(-config.init_scale, config.init_scale);
  };
  init(model.user_factors_, static_cast<size_t>(model.num_users_) * k);
  init(model.item_factors_, static_cast<size_t>(model.num_items_) * k);
  model.user_bias_.assign(static_cast<size_t>(model.num_users_), 0.0);
  model.item_bias_.assign(static_cast<size_t>(model.num_items_), 0.0);

  const double lr = config.learning_rate;
  const double reg = config.regularization;
  for (int32_t epoch = 0; epoch < config.num_epochs; ++epoch) {
    if (config.shuffle_each_epoch) rng.Shuffle(triples);
    double squared_error = 0.0;
    for (const RatingTriple& t : triples) {
      double* p = model.user_factors_.data() + static_cast<size_t>(t.user) * k;
      double* q = model.item_factors_.data() + static_cast<size_t>(t.item) * k;
      double& bu = model.user_bias_[static_cast<size_t>(t.user)];
      double& bi = model.item_bias_[static_cast<size_t>(t.item)];

      double dot = 0.0;
      for (size_t f = 0; f < k; ++f) dot += p[f] * q[f];
      const double prediction = model.global_mean_ + bu + bi + dot;
      const double error = t.value - prediction;
      squared_error += error * error;

      if (config.use_biases) {
        bu += lr * (error - reg * bu);
        bi += lr * (error - reg * bi);
      }
      for (size_t f = 0; f < k; ++f) {
        const double pf = p[f];
        p[f] += lr * (error * q[f] - reg * pf);
        q[f] += lr * (error * pf - reg * q[f]);
      }
    }
    if (epoch_rmse != nullptr) {
      epoch_rmse->push_back(
          std::sqrt(squared_error / static_cast<double>(triples.size())));
    }
  }
  return model;
}

double MatrixFactorizationModel::PredictRaw(UserId u, ItemId i) const {
  if (u < 0 || u >= num_users_ || i < 0 || i >= num_items_) {
    return global_mean_;
  }
  double dot = 0.0;
  const auto p = UserFactors(u);
  const auto q = ItemFactors(i);
  for (size_t f = 0; f < p.size(); ++f) dot += p[f] * q[f];
  return global_mean_ + user_bias_[static_cast<size_t>(u)] +
         item_bias_[static_cast<size_t>(i)] + dot;
}

double MatrixFactorizationModel::Predict(UserId u, ItemId i) const {
  return std::clamp(PredictRaw(u, i), kMinRating, kMaxRating);
}

Result<std::vector<MemberRelevance>> MatrixFactorizationModel::RelevanceForGroup(
    const RatingMatrix& matrix, const Group& group) const {
  if (group.empty()) {
    return Status::InvalidArgument("group must not be empty");
  }
  std::unordered_set<UserId> seen;
  for (const UserId u : group) {
    if (!matrix.IsValidUser(u)) {
      return Status::InvalidArgument("unknown user id in group: " +
                                     std::to_string(u));
    }
    if (!seen.insert(u).second) {
      return Status::InvalidArgument("duplicate user id in group: " +
                                     std::to_string(u));
    }
  }
  const std::vector<ItemId> candidates = matrix.ItemsUnratedByAll(group);
  std::vector<MemberRelevance> out;
  out.reserve(group.size());
  for (const UserId u : group) {
    MemberRelevance member;
    member.user = u;
    member.relevance.reserve(candidates.size());
    for (const ItemId i : candidates) {
      member.relevance.push_back({i, Predict(u, i)});
    }
    out.push_back(std::move(member));
  }
  return out;
}

}  // namespace fairrec
