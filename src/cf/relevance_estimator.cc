#include "cf/relevance_estimator.h"

#include <algorithm>

#include "common/logging.h"

namespace fairrec {

RelevanceEstimator::RelevanceEstimator(const RatingMatrix* matrix)
    : matrix_(matrix) {
  FAIRREC_CHECK(matrix != nullptr);
}

std::optional<double> RelevanceEstimator::Estimate(const std::vector<Peer>& peers,
                                                   ItemId item) const {
  if (!matrix_->IsValidItem(item)) return std::nullopt;
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  for (const Peer& peer : peers) {
    const std::optional<Rating> rating = matrix_->GetRating(peer.user, item);
    if (!rating.has_value()) continue;
    weighted_sum += peer.similarity * *rating;
    weight_total += peer.similarity;
  }
  if (weight_total <= 0.0) return std::nullopt;
  return weighted_sum / weight_total;
}

std::vector<ScoredItem> RelevanceEstimator::EstimateAll(
    const std::vector<Peer>& peers, const std::vector<ItemId>& items,
    Scratch& scratch) const {
  // For more than a handful of items it is cheaper to scan each peer's row
  // once than to binary-search per (peer, item) pair.
  std::vector<ScoredItem> out;
  if (items.empty() || peers.empty()) return out;

  const ItemId max_item = *std::max_element(items.begin(), items.end());
  const size_t size = static_cast<size_t>(max_item) + 1;
  if (scratch.wanted.size() < size) {
    scratch.wanted.resize(size, 0);
    scratch.written.resize(size, 0);
    scratch.weighted_sum.resize(size, 0.0);
    scratch.weight_total.resize(size, 0.0);
  }
  const uint64_t gen = ++scratch.generation;
  for (const ItemId i : items) {
    if (i >= 0) scratch.wanted[static_cast<size_t>(i)] = gen;
  }
  for (const Peer& peer : peers) {
    for (const ItemRating& entry : matrix_->ItemsRatedBy(peer.user)) {
      if (entry.item > max_item) continue;
      const size_t slot = static_cast<size_t>(entry.item);
      if (scratch.wanted[slot] != gen) continue;
      if (scratch.written[slot] != gen) {
        scratch.written[slot] = gen;
        scratch.weighted_sum[slot] = 0.0;
        scratch.weight_total[slot] = 0.0;
      }
      scratch.weighted_sum[slot] += peer.similarity * entry.value;
      scratch.weight_total[slot] += peer.similarity;
    }
  }
  out.reserve(items.size());
  for (const ItemId i : items) {
    if (i < 0) continue;
    const size_t slot = static_cast<size_t>(i);
    if (scratch.written[slot] != gen) continue;
    const double total = scratch.weight_total[slot];
    if (total <= 0.0) continue;
    out.push_back({i, scratch.weighted_sum[slot] / total});
  }
  return out;
}

}  // namespace fairrec
