#ifndef FAIRREC_CF_PEER_FINDER_H_
#define FAIRREC_CF_PEER_FINDER_H_

#include <vector>

#include "ratings/types.h"
#include "sim/peer_provider.h"

namespace fairrec {

/// Controls for PeerFinder.
struct PeerFinderOptions {
  /// The delta of Definition 1: users with simU >= delta become peers.
  double delta = 0.1;
  /// Optional cap: keep only the top max_peers most similar qualifying
  /// peers (0 = unlimited, the paper's definition). A safety valve for very
  /// dense similarity distributions.
  int32_t max_peers = 0;
};

/// Implements Definition 1: P_u = { u' != u : simU(u, u') >= delta }.
///
/// Reads a prebuilt peer graph (a PeerProvider: an engine-built PeerIndex,
/// or a DensePeerAdapter for a measure with no sufficient-statistics
/// decomposition). FindPeers is a thin filter over the stored PeersOf(u)
/// list — delta, exclusion, max_peers — in O(|peers| + |exclude|).
class PeerFinder {
 public:
  /// `provider` must outlive this object. options.delta may be *stricter*
  /// than the provider's build threshold (stored entries below it are
  /// dropped at query time); it cannot be looser, since pairs discarded at
  /// build time cannot reappear. Likewise max_peers is applied after
  /// exclusion, so providers serving group queries should be built with
  /// headroom (build cap >= max_peers + largest exclusion list) or
  /// unbounded for exact Def. 1 semantics.
  explicit PeerFinder(const PeerProvider* provider,
                      PeerFinderOptions options = {});

  /// Peers of `u`, sorted by descending similarity (ties: ascending id).
  /// Users listed in `exclude` are never returned — the MapReduce flow of
  /// §IV computes similarities between a member and users *outside* the
  /// group, so group recommendation passes the group here.
  std::vector<Peer> FindPeers(UserId u, const Group& exclude = {}) const;

  const PeerFinderOptions& options() const { return options_; }
  int32_t num_users() const { return provider_->num_users(); }

 private:
  const PeerProvider* provider_;
  PeerFinderOptions options_;
};

}  // namespace fairrec

#endif  // FAIRREC_CF_PEER_FINDER_H_
