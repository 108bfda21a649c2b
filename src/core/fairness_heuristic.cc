#include "core/fairness_heuristic.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace fairrec {

FairnessHeuristic::FairnessHeuristic(FairnessHeuristicOptions options)
    : options_(options) {}

Result<Selection> FairnessHeuristic::Select(const GroupContext& context,
                                            int32_t z) const {
  if (z <= 0) return Status::InvalidArgument("z must be positive");
  const int32_t n = context.group_size();
  const int32_t m = context.num_candidates();

  std::vector<uint8_t> selected(static_cast<size_t>(m), 0);
  std::vector<int32_t> picked;  // candidate indexes in selection order
  picked.reserve(static_cast<size_t>(std::min(z, m)));

  // Picks argmax_{i in A_source \ D} relevance(u_scorer, i); returns the
  // candidate index or -1 when A_source is exhausted.
  auto pick_for_pair = [&](int32_t source, int32_t scorer) -> int32_t {
    int32_t best = -1;
    double best_score = 0.0;
    for (const ScoredItem& entry : context.MemberTopK(source)) {
      const int32_t c = context.CandidateIndexOf(entry.item);
      FAIRREC_DCHECK(c >= 0);
      if (selected[static_cast<size_t>(c)] != 0) continue;
      const double score =
          context.candidate(c).member_relevance[static_cast<size_t>(scorer)];
      if (std::isnan(score)) continue;  // undefined for the scorer
      if (best == -1 || score > best_score ||
          (score == best_score && context.candidate(c).item <
                                      context.candidate(best).item)) {
        best = c;
        best_score = score;
      }
    }
    return best;
  };

  bool progressed = true;
  while (static_cast<int32_t>(picked.size()) < z && progressed) {
    progressed = false;
    for (int32_t x = 0; x < n && static_cast<int32_t>(picked.size()) < z; ++x) {
      for (int32_t y = 0; y < n && static_cast<int32_t>(picked.size()) < z; ++y) {
        if (x == y) continue;
        // Line 7: item from A_uy scored by ux (or the prose's transpose).
        const int32_t source = options_.pick_from_a_ux ? x : y;
        const int32_t scorer = options_.pick_from_a_ux ? y : x;
        const int32_t best = pick_for_pair(source, scorer);
        if (best < 0) continue;
        selected[static_cast<size_t>(best)] = 1;
        picked.push_back(best);
        progressed = true;
      }
    }
  }

  if (options_.fill_shortfall && static_cast<int32_t>(picked.size()) < z) {
    // Top up with the best remaining candidates by group relevance.
    for (const int32_t c : context.CandidatesByGroupRelevance()) {
      if (static_cast<int32_t>(picked.size()) >= z) break;
      if (selected[static_cast<size_t>(c)] == 0) picked.push_back(c);
    }
  }

  return FinalizeSelection(context, picked);
}

}  // namespace fairrec
