#ifndef FAIRREC_CF_TOP_K_H_
#define FAIRREC_CF_TOP_K_H_

#include <span>
#include <vector>

#include "ratings/types.h"

namespace fairrec {

/// Selects the k highest-scoring items with a deterministic total order:
/// descending score, ties broken by ascending item id. Uses a bounded heap,
/// O(n log k); returns fewer than k when the input is smaller.
///
/// This is the centralized top-k step of §IV ("trivial when k elements are
/// small enough to fit in memory"); the distributed variant lives in
/// mapreduce/topk_mapreduce.h.
std::vector<ScoredItem> SelectTopK(std::span<const ScoredItem> scored,
                                   int32_t k);

/// Comparison used everywhere a "better" item must be chosen: true when `a`
/// precedes `b` (higher score first; ascending id on ties).
inline bool ScoredItemBetter(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

}  // namespace fairrec

#endif  // FAIRREC_CF_TOP_K_H_
