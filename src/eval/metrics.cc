#include "eval/metrics.h"

#include <algorithm>
#include <cmath>

namespace fairrec {

double MemberSatisfaction(const GroupContext& context, int32_t member_index,
                          const std::vector<int32_t>& candidate_indexes) {
  const auto m = static_cast<size_t>(member_index);
  const std::optional<double> best_possible =
      context.BestRelevance(member_index);
  if (!best_possible || *best_possible <= 0.0) return -1.0;

  double best_in_d = 0.0;
  for (const int32_t c : candidate_indexes) {
    const double score = context.candidate(c).member_relevance[m];
    if (std::isnan(score)) continue;
    best_in_d = std::max(best_in_d, score);
  }
  return best_in_d / *best_possible;
}

SatisfactionStats GroupSatisfaction(const GroupContext& context,
                                    const std::vector<int32_t>& candidate_indexes) {
  SatisfactionStats stats;
  double total = 0.0;
  for (int32_t m = 0; m < context.group_size(); ++m) {
    const double s = MemberSatisfaction(context, m, candidate_indexes);
    if (s < 0.0) continue;
    if (stats.members_counted == 0) {
      stats.min = s;
      stats.max = s;
    } else {
      stats.min = std::min(stats.min, s);
      stats.max = std::max(stats.max, s);
    }
    total += s;
    ++stats.members_counted;
  }
  if (stats.members_counted > 0) stats.mean = total / stats.members_counted;
  return stats;
}

SatisfactionStats GroupSatisfactionByItems(const GroupContext& context,
                                           const std::vector<ItemId>& items) {
  std::vector<int32_t> indexes;
  indexes.reserve(items.size());
  for (const ItemId item : items) {
    const int32_t index = context.CandidateIndexOf(item);
    if (index >= 0) indexes.push_back(index);
  }
  return GroupSatisfaction(context, indexes);
}

}  // namespace fairrec
