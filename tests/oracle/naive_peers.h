#ifndef FAIRREC_TESTS_ORACLE_NAIVE_PEERS_H_
#define FAIRREC_TESTS_ORACLE_NAIVE_PEERS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cf/peer_finder.h"
#include "ratings/types.h"
#include "sim/peer_provider.h"
#include "sim/user_similarity.h"

namespace fairrec {

/// Test-only reference for Definition 1: the plain O(U) similarity scan,
/// sharing no code with PeerIndex::Builder or PeerFinder. For each v != u
/// not in `exclude`, keep simU(u, v) >= delta; sort by BetterPeer; then cap
/// at max_peers (0 = unlimited).
inline std::vector<Peer> NaivePeers(const UserSimilarity& similarity,
                                    int32_t num_users, UserId u,
                                    const PeerFinderOptions& options,
                                    const Group& exclude = {}) {
  std::vector<Peer> peers;
  for (UserId v = 0; v < num_users; ++v) {
    if (v == u ||
        std::find(exclude.begin(), exclude.end(), v) != exclude.end()) {
      continue;
    }
    const double sim = similarity.Compute(u, v);
    if (sim >= options.delta) peers.push_back({v, sim});
  }
  std::sort(peers.begin(), peers.end(), BetterPeer);
  if (options.max_peers > 0 &&
      peers.size() > static_cast<size_t>(options.max_peers)) {
    peers.resize(static_cast<size_t>(options.max_peers));
  }
  return peers;
}

}  // namespace fairrec

#endif  // FAIRREC_TESTS_ORACLE_NAIVE_PEERS_H_
