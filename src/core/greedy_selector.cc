#include "core/greedy_selector.h"

#include <algorithm>
#include <vector>

namespace fairrec {

Result<Selection> GreedyValueSelector::Select(const GroupContext& context,
                                              int32_t z) const {
  if (z <= 0) return Status::InvalidArgument("z must be positive");
  const int32_t m = context.num_candidates();
  const int32_t n = context.group_size();

  std::vector<uint8_t> selected(static_cast<size_t>(m), 0);
  std::vector<int32_t> member_hits(static_cast<size_t>(n), 0);
  int32_t fair_members = 0;
  double rel_sum = 0.0;
  const double inv_n = 1.0 / static_cast<double>(n);

  std::vector<int32_t> picked;
  picked.reserve(static_cast<size_t>(std::min(z, m)));

  for (int32_t round = 0; round < z && round < m; ++round) {
    int32_t best = -1;
    double best_value = 0.0;
    double best_rel = 0.0;
    for (int32_t c = 0; c < m; ++c) {
      if (selected[static_cast<size_t>(c)] != 0) continue;
      const GroupCandidate cand = context.candidate(c);
      // Value of D ∪ {c} from the incremental state.
      int32_t fair_after = fair_members;
      for (int32_t mem = 0; mem < n; ++mem) {
        if (member_hits[static_cast<size_t>(mem)] == 0 &&
            context.InMemberTopK(mem, c)) {
          ++fair_after;
        }
      }
      const double value =
          static_cast<double>(fair_after) * inv_n * (rel_sum + cand.group_relevance);
      const bool better =
          best == -1 || value > best_value ||
          (value == best_value &&
           (cand.group_relevance > best_rel ||
            (cand.group_relevance == best_rel &&
             cand.item < context.candidate(best).item)));
      if (better) {
        best = c;
        best_value = value;
        best_rel = cand.group_relevance;
      }
    }
    if (best < 0) break;
    selected[static_cast<size_t>(best)] = 1;
    picked.push_back(best);
    rel_sum += context.candidate(best).group_relevance;
    for (int32_t mem = 0; mem < n; ++mem) {
      if (context.InMemberTopK(mem, best)) {
        if (member_hits[static_cast<size_t>(mem)]++ == 0) ++fair_members;
      }
    }
  }

  return FinalizeSelection(context, picked);
}

}  // namespace fairrec
