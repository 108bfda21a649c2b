#include "core/least_misery_selector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace fairrec {

Result<Selection> LeastMiserySelector::Select(const GroupContext& context,
                                              int32_t z) const {
  if (z <= 0) return Status::InvalidArgument("z must be positive");
  const int32_t m = context.num_candidates();
  const int32_t n = context.group_size();

  std::vector<uint8_t> selected(static_cast<size_t>(m), 0);
  // member_mass[u]: sum of u's relevance over the current D.
  std::vector<double> member_mass(static_cast<size_t>(n), 0.0);
  std::vector<int32_t> picked;
  picked.reserve(static_cast<size_t>(std::min(z, m)));

  for (int32_t round = 0; round < z && round < m; ++round) {
    int32_t best = -1;
    double best_min = -std::numeric_limits<double>::infinity();
    double best_total = 0.0;
    double best_group_rel = 0.0;
    for (int32_t c = 0; c < m; ++c) {
      if (selected[static_cast<size_t>(c)] != 0) continue;
      const GroupCandidate cand = context.candidate(c);
      double min_after = std::numeric_limits<double>::infinity();
      double total_after = 0.0;
      for (int32_t mem = 0; mem < n; ++mem) {
        const double score = cand.member_relevance[static_cast<size_t>(mem)];
        const double mass = member_mass[static_cast<size_t>(mem)] +
                            (std::isnan(score) ? 0.0 : score);
        min_after = std::min(min_after, mass);
        total_after += mass;
      }
      const bool better =
          best == -1 || min_after > best_min ||
          (min_after == best_min &&
           (total_after > best_total ||
            (total_after == best_total &&
             (cand.group_relevance > best_group_rel ||
              (cand.group_relevance == best_group_rel &&
               cand.item < context.candidate(best).item)))));
      if (better) {
        best = c;
        best_min = min_after;
        best_total = total_after;
        best_group_rel = cand.group_relevance;
      }
    }
    if (best < 0) break;
    selected[static_cast<size_t>(best)] = 1;
    picked.push_back(best);
    for (int32_t mem = 0; mem < n; ++mem) {
      const double score =
          context.candidate(best).member_relevance[static_cast<size_t>(mem)];
      if (!std::isnan(score)) member_mass[static_cast<size_t>(mem)] += score;
    }
  }

  return FinalizeSelection(context, picked);
}

}  // namespace fairrec
