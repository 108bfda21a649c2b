#include "cf/top_k.h"

#include <algorithm>
#include <queue>

namespace fairrec {

std::vector<ScoredItem> SelectTopK(std::span<const ScoredItem> scored,
                                   int32_t k) {
  if (k <= 0) return {};
  // Min-heap on "better": the root is the worst of the current top-k.
  auto worse = [](const ScoredItem& a, const ScoredItem& b) {
    return ScoredItemBetter(a, b);
  };
  std::priority_queue<ScoredItem, std::vector<ScoredItem>, decltype(worse)> heap(
      worse);
  for (const ScoredItem& s : scored) {
    if (heap.size() < static_cast<size_t>(k)) {
      heap.push(s);
    } else if (ScoredItemBetter(s, heap.top())) {
      heap.pop();
      heap.push(s);
    }
  }
  std::vector<ScoredItem> out(heap.size());
  for (size_t slot = heap.size(); slot-- > 0;) {
    out[slot] = heap.top();
    heap.pop();
  }
  return out;
}

}  // namespace fairrec
