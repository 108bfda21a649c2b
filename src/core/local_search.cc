#include "core/local_search.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace fairrec {

LocalSearchSelector::LocalSearchSelector(LocalSearchOptions options)
    : options_(options) {}

Result<Selection> LocalSearchSelector::Select(const GroupContext& context,
                                              int32_t z) const {
  if (z <= 0) return Status::InvalidArgument("z must be positive");
  const int32_t m = context.num_candidates();
  const int32_t n = context.group_size();

  // ---- Seed ----------------------------------------------------------
  std::vector<int32_t> selected_indexes;
  if (options_.seed_with_algorithm1) {
    const FairnessHeuristic heuristic(options_.heuristic);
    FAIRREC_ASSIGN_OR_RETURN(const Selection seed, heuristic.Select(context, z));
    selected_indexes.reserve(seed.items.size());
    for (const ItemId item : seed.items) {
      const int32_t c = context.CandidateIndexOf(item);
      FAIRREC_DCHECK(c >= 0);
      selected_indexes.push_back(c);
    }
  } else {
    // Best-z by group relevance.
    selected_indexes = context.CandidatesByGroupRelevance();
    selected_indexes.resize(static_cast<size_t>(std::min(z, m)));
  }

  // ---- Incremental state (same bookkeeping as the brute force) --------
  std::vector<uint8_t> in_d(static_cast<size_t>(m), 0);
  std::vector<int32_t> member_hits(static_cast<size_t>(n), 0);
  int32_t fair_members = 0;
  double rel_sum = 0.0;
  auto add = [&](int32_t c) {
    in_d[static_cast<size_t>(c)] = 1;
    rel_sum += context.candidate(c).group_relevance;
    for (int32_t mem = 0; mem < n; ++mem) {
      if (context.InMemberTopK(mem, c) &&
          member_hits[static_cast<size_t>(mem)]++ == 0) {
        ++fair_members;
      }
    }
  };
  auto remove = [&](int32_t c) {
    in_d[static_cast<size_t>(c)] = 0;
    rel_sum -= context.candidate(c).group_relevance;
    for (int32_t mem = 0; mem < n; ++mem) {
      if (context.InMemberTopK(mem, c) &&
          --member_hits[static_cast<size_t>(mem)] == 0) {
        --fair_members;
      }
    }
  };
  for (const int32_t c : selected_indexes) add(c);
  const double inv_n = 1.0 / static_cast<double>(n);
  auto current_value = [&] {
    return static_cast<double>(fair_members) * inv_n * rel_sum;
  };

  // ---- Hill climbing: best-improvement single swaps --------------------
  for (int32_t round = 0; round < options_.max_swaps; ++round) {
    const double base = current_value();
    double best_value = base;
    int32_t best_out = -1;
    int32_t best_in = -1;
    for (size_t slot = 0; slot < selected_indexes.size(); ++slot) {
      const int32_t out = selected_indexes[slot];
      remove(out);
      for (int32_t in = 0; in < m; ++in) {
        if (in_d[static_cast<size_t>(in)] != 0 || in == out) continue;
        add(in);
        const double value = current_value();
        if (value > best_value + 1e-12) {
          best_value = value;
          best_out = out;
          best_in = in;
        }
        remove(in);
      }
      add(out);
    }
    if (best_out < 0) break;  // local optimum
    for (size_t slot = 0; slot < selected_indexes.size(); ++slot) {
      if (selected_indexes[slot] == best_out) {
        remove(best_out);
        add(best_in);
        selected_indexes[slot] = best_in;
        break;
      }
    }
  }

  std::sort(selected_indexes.begin(), selected_indexes.end());
  return FinalizeSelection(context, selected_indexes);
}

}  // namespace fairrec
