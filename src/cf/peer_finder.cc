#include "cf/peer_finder.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"

namespace fairrec {

namespace {

/// Reusable exclusion mark-set: excluded(v) iff stamp[v] == epoch. Bumping
/// the epoch invalidates every mark in O(1), so repeated FindPeers calls
/// reuse the allocation instead of building a fresh bitmap. One per calling
/// thread, shared across PeerFinder instances (it grows to the largest user
/// population seen on the thread).
struct ExclusionScratch {
  std::vector<uint64_t> stamp;
  uint64_t epoch = 0;
};

ExclusionScratch& StampExclusions(int32_t num_users, const Group& exclude) {
  thread_local ExclusionScratch scratch;
  if (scratch.stamp.size() < static_cast<size_t>(num_users)) {
    scratch.stamp.resize(static_cast<size_t>(num_users), 0);
  }
  ++scratch.epoch;
  for (const UserId e : exclude) {
    if (e >= 0 && e < num_users) {
      scratch.stamp[static_cast<size_t>(e)] = scratch.epoch;
    }
  }
  return scratch;
}

}  // namespace

PeerFinder::PeerFinder(const PeerProvider* provider, PeerFinderOptions options)
    : provider_(provider), options_(options) {
  FAIRREC_CHECK(provider != nullptr);
}

std::vector<Peer> PeerFinder::FindPeers(UserId u, const Group& exclude) const {
  const ExclusionScratch& scratch =
      StampExclusions(provider_->num_users(), exclude);
  // The stored list is already thresholded at the provider's build delta and
  // sorted by BetterPeer, so entries with sim >= delta form a prefix and the
  // first max_peers survivors after exclusion are exactly Def. 1's top-k.
  const std::span<const Peer> stored = provider_->PeersOf(u);
  const size_t cap = options_.max_peers > 0
                         ? static_cast<size_t>(options_.max_peers)
                         : stored.size();
  std::vector<Peer> peers;
  peers.reserve(std::min(cap, stored.size()));
  for (const Peer& p : stored) {
    if (p.similarity < options_.delta) break;
    if (p.user == u ||
        scratch.stamp[static_cast<size_t>(p.user)] == scratch.epoch) {
      continue;
    }
    peers.push_back(p);
    if (peers.size() == cap) break;
  }
  return peers;
}

}  // namespace fairrec
