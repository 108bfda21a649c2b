#include "core/fairness.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/selector.h"

namespace fairrec {

bool IsFairToMember(const GroupContext& context, int32_t member_index,
                    const std::vector<int32_t>& candidate_indexes) {
  for (const int32_t c : candidate_indexes) {
    if (context.InMemberTopK(member_index, c)) return true;
  }
  return false;
}

ValueBreakdown EvaluateSelection(const GroupContext& context,
                                 const std::vector<int32_t>& candidate_indexes) {
  ValueBreakdown out;
  const int32_t n = context.group_size();
  FAIRREC_DCHECK(n > 0);
  int32_t fair_members = 0;
  for (int32_t m = 0; m < n; ++m) {
    if (IsFairToMember(context, m, candidate_indexes)) ++fair_members;
  }
  out.fairness = static_cast<double>(fair_members) / static_cast<double>(n);
  for (const int32_t c : candidate_indexes) {
    out.relevance_sum += context.candidate(c).group_relevance;
  }
  out.value = out.fairness * out.relevance_sum;
  return out;
}

std::vector<MemberBreakdown> ComputeMemberBreakdowns(
    const GroupContext& context, const std::vector<int32_t>& candidate_indexes) {
  const int32_t n = context.group_size();
  std::vector<MemberBreakdown> out(static_cast<size_t>(n));
  for (int32_t m = 0; m < n; ++m) {
    MemberBreakdown& row = out[static_cast<size_t>(m)];
    const auto mem = static_cast<size_t>(m);
    for (const int32_t c : candidate_indexes) {
      if (context.InMemberTopK(m, c)) {
        row.satisfied = true;
        ++row.top_k_hits;
      }
      const double score = context.candidate(c).member_relevance[mem];
      if (std::isnan(score)) continue;
      row.relevance_sum += score;
      row.best_relevance = std::max(row.best_relevance, score);
    }
    const std::optional<double> best_possible = context.BestRelevance(m);
    if (best_possible && *best_possible > 0.0) {
      row.satisfaction = row.best_relevance / *best_possible;
    }
  }
  return out;
}

Selection FinalizeSelection(const GroupContext& context,
                            const std::vector<int32_t>& candidate_indexes) {
  Selection out;
  out.score = EvaluateSelection(context, candidate_indexes);
  out.members = ComputeMemberBreakdowns(context, candidate_indexes);
  out.items.reserve(candidate_indexes.size());
  for (const int32_t c : candidate_indexes) {
    out.items.push_back(context.candidate(c).item);
  }
  return out;
}

ValueBreakdown EvaluateSelectionByItems(const GroupContext& context,
                                        const std::vector<ItemId>& items) {
  std::vector<int32_t> indexes;
  indexes.reserve(items.size());
  for (const ItemId item : items) {
    const int32_t index = context.CandidateIndexOf(item);
    if (index >= 0) indexes.push_back(index);
  }
  return EvaluateSelection(context, indexes);
}

}  // namespace fairrec
