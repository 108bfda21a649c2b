#ifndef FAIRREC_CF_RELEVANCE_ESTIMATOR_H_
#define FAIRREC_CF_RELEVANCE_ESTIMATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "cf/peer_finder.h"
#include "ratings/rating_matrix.h"
#include "ratings/types.h"

namespace fairrec {

/// Implements Eq. 1:
///
///   relevance(u, i) = sum_{u' in P_u ∩ U(i)} simU(u,u') * rating(u',i)
///                     -----------------------------------------------
///   	               sum_{u' in P_u ∩ U(i)} simU(u,u')
///
/// The estimate is *undefined* when no peer rated the item (or when the
/// qualifying similarity mass is zero); such items cannot be recommended to
/// the user, mirroring the paper's implicit behaviour.
class RelevanceEstimator {
 public:
  /// `matrix` must outlive this object.
  explicit RelevanceEstimator(const RatingMatrix* matrix);

  /// Relevance of a single item; nullopt when undefined. `peers` must be the
  /// output of PeerFinder::FindPeers(u).
  std::optional<double> Estimate(const std::vector<Peer>& peers, ItemId item) const;

  /// Reusable dense accumulators for EstimateAll. Entries are valid only when
  /// their stamp equals the current generation, so a call invalidates the
  /// previous call's state by bumping `generation` instead of reallocating or
  /// clearing three max_item+1 vectors. Safe to share across estimators (the
  /// vectors grow monotonically to the largest item id seen).
  struct Scratch {
    std::vector<double> weighted_sum;
    std::vector<double> weight_total;
    /// Stamp of the last generation that marked the item as requested.
    std::vector<uint64_t> wanted;
    /// Stamp of the last generation that wrote the item's accumulators.
    std::vector<uint64_t> written;
    uint64_t generation = 0;
  };

  /// Relevance for each of `items`; undefined items are skipped. The output
  /// preserves the order of `items`. Accumulates through a caller-owned
  /// Scratch, so one per worker (or per group query) serves every call.
  std::vector<ScoredItem> EstimateAll(const std::vector<Peer>& peers,
                                      const std::vector<ItemId>& items,
                                      Scratch& scratch) const;

 private:
  const RatingMatrix* matrix_;
};

}  // namespace fairrec

#endif  // FAIRREC_CF_RELEVANCE_ESTIMATOR_H_
