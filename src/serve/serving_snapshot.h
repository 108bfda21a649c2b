#ifndef FAIRREC_SERVE_SERVING_SNAPSHOT_H_
#define FAIRREC_SERVE_SERVING_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "cf/recommender.h"
#include "ratings/rating_matrix.h"
#include "sim/peer_provider.h"

namespace fairrec {
namespace serve {

/// One immutable generation of the serving artifacts: the rating corpus and
/// the Def. 1 peer graph that was built from it, tagged with the generation
/// id that published them together.
///
/// This is the unit of consistency of the serving layer. A request acquires
/// one snapshot up front and runs every step of its query against it, so a
/// multi-step flow (peers -> Eq. 1 relevance -> Def. 2 aggregation ->
/// selector) can never straddle an index swap: even if LivePeerGraph
/// publishes ten new generations mid-query, the holder's matrix and peers
/// stay the mutually consistent pair they were published as. Both payloads
/// are shared_ptr<const ...>, so a snapshot is cheap to copy, trivially
/// destructible in any order, and safe to read from any number of threads.
struct ServingSnapshot {
  /// Publication counter of the source. Generations start at 1 and increase
  /// by one per applied delta batch; 0 marks a default-constructed (invalid)
  /// snapshot.
  uint64_t generation = 0;
  std::shared_ptr<const RatingMatrix> matrix;
  std::shared_ptr<const PeerProvider> peers;

  bool valid() const { return generation != 0 && matrix != nullptr && peers != nullptr; }

  /// A single-user recommender bound to this generation. The returned object
  /// holds raw pointers into the snapshot's artifacts: keep the snapshot
  /// alive for as long as the recommender.
  Recommender MakeRecommender(RecommenderOptions options = {}) const {
    return Recommender(matrix.get(), peers.get(), options);
  }
};

}  // namespace serve
}  // namespace fairrec

#endif  // FAIRREC_SERVE_SERVING_SNAPSHOT_H_
