#include "core/fair_package_selector.h"

#include <algorithm>
#include <string>
#include <vector>

namespace fairrec {

FairPackageSelector::FairPackageSelector(FairPackageOptions options)
    : options_(options) {}

Result<Selection> FairPackageSelector::Select(const GroupContext& context,
                                              int32_t z) const {
  if (z <= 0) return Status::InvalidArgument("z must be positive");
  if (options_.min_per_member <= 0) {
    return Status::InvalidArgument("min_per_member must be positive, got " +
                                   std::to_string(options_.min_per_member));
  }
  const int32_t m = context.num_candidates();
  const int32_t n = context.group_size();
  const int32_t take = std::min(z, m);

  // Candidates in descending group relevance (ties ascending item id): the
  // enumeration order, which makes the prefix-sum relevance bound tight.
  const std::vector<int32_t> ordered = context.CandidatesByGroupRelevance();

  // prefix_rel[p] = sum of the p most relevant candidates; the upper bound
  // for filling `slots` remaining picks from position `pos` onward is
  // prefix_rel[pos + slots] - prefix_rel[pos] (order is descending, so the
  // next `slots` entries are the best the suffix can offer).
  std::vector<double> prefix_rel(static_cast<size_t>(m) + 1, 0.0);
  for (int32_t p = 0; p < m; ++p) {
    prefix_rel[static_cast<size_t>(p) + 1] =
        prefix_rel[static_cast<size_t>(p)] +
        context.candidate(ordered[static_cast<size_t>(p)]).group_relevance;
  }

  // hit[mem][pos]: ordered[pos] is in member mem's A_u.
  // suffix_hits[mem][pos]: # of A_u items among ordered[pos..m-1].
  std::vector<std::vector<uint8_t>> hit(
      static_cast<size_t>(n), std::vector<uint8_t>(static_cast<size_t>(m), 0));
  std::vector<std::vector<int32_t>> suffix_hits(
      static_cast<size_t>(n),
      std::vector<int32_t>(static_cast<size_t>(m) + 1, 0));
  std::vector<int32_t> quota(static_cast<size_t>(n), 0);
  for (int32_t mem = 0; mem < n; ++mem) {
    for (int32_t p = 0; p < m; ++p) {
      hit[static_cast<size_t>(mem)][static_cast<size_t>(p)] =
          context.InMemberTopK(mem, ordered[static_cast<size_t>(p)]) ? 1 : 0;
    }
    for (int32_t p = m - 1; p >= 0; --p) {
      suffix_hits[static_cast<size_t>(mem)][static_cast<size_t>(p)] =
          suffix_hits[static_cast<size_t>(mem)][static_cast<size_t>(p) + 1] +
          hit[static_cast<size_t>(mem)][static_cast<size_t>(p)];
    }
    // A member cannot be asked for more A_u items than they have (or than D
    // can hold).
    quota[static_cast<size_t>(mem)] =
        std::min({options_.min_per_member,
                  suffix_hits[static_cast<size_t>(mem)][0], take});
  }

  std::vector<int32_t> current;
  current.reserve(static_cast<size_t>(take));
  std::vector<int32_t> hits(static_cast<size_t>(n), 0);
  double current_rel = 0.0;

  std::vector<int32_t> best_positions;
  int32_t best_covered = -1;
  double best_rel = 0.0;
  int64_t nodes = 0;

  // DFS over positions; `covered` counts members already at quota.
  auto recurse = [&](auto&& self, int32_t pos, int32_t covered) -> void {
    if (nodes >= options_.max_nodes) return;
    ++nodes;
    const auto slots = take - static_cast<int32_t>(current.size());
    if (slots == 0) {
      if (covered > best_covered ||
          (covered == best_covered && current_rel > best_rel)) {
        best_covered = covered;
        best_rel = current_rel;
        best_positions = current;
      }
      return;
    }
    if (m - pos < slots) return;  // cannot fill the package

    // Coverage upper bound: a not-yet-covered member can still make quota
    // only if the suffix holds enough of their A_u items.
    int32_t covered_ub = covered;
    for (int32_t mem = 0; mem < n; ++mem) {
      const int32_t deficit =
          quota[static_cast<size_t>(mem)] - hits[static_cast<size_t>(mem)];
      if (deficit <= 0) continue;
      if (suffix_hits[static_cast<size_t>(mem)][static_cast<size_t>(pos)] >=
              deficit &&
          slots >= deficit) {
        ++covered_ub;
      }
    }
    if (covered_ub < best_covered) return;
    // Relevance upper bound, only binding at equal coverage.
    const double rel_ub = current_rel +
                          prefix_rel[static_cast<size_t>(pos + slots)] -
                          prefix_rel[static_cast<size_t>(pos)];
    if (covered_ub == best_covered && rel_ub <= best_rel) return;

    // Branch: take ordered[pos], then skip it.
    const int32_t cand = ordered[static_cast<size_t>(pos)];
    current.push_back(pos);
    current_rel += context.candidate(cand).group_relevance;
    int32_t covered_after = covered;
    for (int32_t mem = 0; mem < n; ++mem) {
      if (hit[static_cast<size_t>(mem)][static_cast<size_t>(pos)] != 0 &&
          ++hits[static_cast<size_t>(mem)] == quota[static_cast<size_t>(mem)] &&
          quota[static_cast<size_t>(mem)] > 0) {
        ++covered_after;
      }
    }
    self(self, pos + 1, covered_after);
    for (int32_t mem = 0; mem < n; ++mem) {
      if (hit[static_cast<size_t>(mem)][static_cast<size_t>(pos)] != 0) {
        --hits[static_cast<size_t>(mem)];
      }
    }
    current_rel -= context.candidate(cand).group_relevance;
    current.pop_back();

    self(self, pos + 1, covered);
  };
  // Members with a zero quota (empty A_u) are covered from the start.
  int32_t initially_covered = 0;
  for (int32_t mem = 0; mem < n; ++mem) {
    if (quota[static_cast<size_t>(mem)] == 0) ++initially_covered;
  }
  recurse(recurse, 0, initially_covered);
  if (best_covered < 0) {
    // The node cap fired before the leftmost (all-takes) leaf — only
    // possible when max_nodes < z. Fall back to the top-z by relevance.
    best_positions.resize(static_cast<size_t>(take));
    for (int32_t p = 0; p < take; ++p) {
      best_positions[static_cast<size_t>(p)] = p;
    }
  }

  // Report in descending-relevance selection order (the enumeration order).
  std::vector<int32_t> picked;
  picked.reserve(best_positions.size());
  for (const int32_t pos : best_positions) {
    picked.push_back(ordered[static_cast<size_t>(pos)]);
  }
  return FinalizeSelection(context, picked);
}

}  // namespace fairrec
