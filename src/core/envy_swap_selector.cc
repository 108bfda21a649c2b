#include "core/envy_swap_selector.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace fairrec {
namespace {

/// Total pairwise envy over normalized satisfactions; members with no
/// defined relevance anywhere (satisfaction -1) neither envy nor are envied.
double TotalEnvy(const std::vector<double>& satisfaction) {
  double total = 0.0;
  for (const double su : satisfaction) {
    if (su < 0.0) continue;
    for (const double sv : satisfaction) {
      if (sv < 0.0) continue;
      if (sv > su) total += sv - su;
    }
  }
  return total;
}

}  // namespace

EnvySwapSelector::EnvySwapSelector(EnvySwapOptions options)
    : options_(options) {}

Result<Selection> EnvySwapSelector::Select(const GroupContext& context,
                                           int32_t z) const {
  if (z <= 0) return Status::InvalidArgument("z must be positive");
  const int32_t m = context.num_candidates();
  const int32_t n = context.group_size();

  // best_possible[u]: the best relevance any candidate offers member u
  // (the satisfaction denominator); <= 0 marks "nothing defined".
  std::vector<double> best_possible(static_cast<size_t>(n), 0.0);
  for (int32_t mem = 0; mem < n; ++mem) {
    best_possible[static_cast<size_t>(mem)] =
        context.BestRelevance(mem).value_or(0.0);
  }

  // ---- Seed: best-z by group relevance ---------------------------------
  std::vector<int32_t> selected_indexes = context.CandidatesByGroupRelevance();
  selected_indexes.resize(static_cast<size_t>(std::min(z, m)));

  std::vector<uint8_t> in_d(static_cast<size_t>(m), 0);
  for (const int32_t c : selected_indexes) in_d[static_cast<size_t>(c)] = 1;

  // Satisfaction (and value) of an explicit candidate set; O(z * n). The
  // swap scan recomputes instead of maintaining incremental state because a
  // removal invalidates per-member maxima anyway.
  std::vector<double> satisfaction(static_cast<size_t>(n), 0.0);
  auto evaluate = [&](const std::vector<int32_t>& d, double* envy,
                      double* value) {
    for (int32_t mem = 0; mem < n; ++mem) {
      const double denom = best_possible[static_cast<size_t>(mem)];
      if (denom <= 0.0) {
        satisfaction[static_cast<size_t>(mem)] = -1.0;
        continue;
      }
      double best_in_d = 0.0;
      for (const int32_t c : d) {
        const double score =
            context.candidate(c).member_relevance[static_cast<size_t>(mem)];
        if (!std::isnan(score)) best_in_d = std::max(best_in_d, score);
      }
      satisfaction[static_cast<size_t>(mem)] = best_in_d / denom;
    }
    *envy = TotalEnvy(satisfaction);
    *value = EvaluateSelection(context, d).value;
  };

  double cur_envy = 0.0;
  double cur_value = 0.0;
  evaluate(selected_indexes, &cur_envy, &cur_value);

  std::vector<int32_t> trial = selected_indexes;
  for (int32_t round = 0; round < options_.max_swaps; ++round) {
    double best_envy = cur_envy;
    double best_value = cur_value;
    size_t best_slot = 0;
    int32_t best_in = -1;
    for (size_t slot = 0; slot < selected_indexes.size(); ++slot) {
      for (int32_t in = 0; in < m; ++in) {
        if (in_d[static_cast<size_t>(in)] != 0) continue;
        trial[slot] = in;
        double envy = 0.0;
        double value = 0.0;
        evaluate(trial, &envy, &value);
        // Lexicographic: strictly less envy, or equal envy and more value.
        const bool better = envy < best_envy - 1e-12 ||
                            (envy < best_envy + 1e-12 &&
                             value > best_value + 1e-12);
        if (better) {
          best_envy = envy;
          best_value = value;
          best_slot = slot;
          best_in = in;
        }
      }
      trial[slot] = selected_indexes[slot];
    }
    if (best_in < 0) break;  // local optimum
    in_d[static_cast<size_t>(selected_indexes[best_slot])] = 0;
    in_d[static_cast<size_t>(best_in)] = 1;
    selected_indexes[best_slot] = best_in;
    trial[best_slot] = best_in;
    cur_envy = best_envy;
    cur_value = best_value;
  }

  std::sort(selected_indexes.begin(), selected_indexes.end());
  return FinalizeSelection(context, selected_indexes);
}

}  // namespace fairrec
