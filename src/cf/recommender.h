#ifndef FAIRREC_CF_RECOMMENDER_H_
#define FAIRREC_CF_RECOMMENDER_H_

#include <vector>

#include "cf/peer_finder.h"
#include "cf/relevance_estimator.h"
#include "common/result.h"
#include "ratings/rating_matrix.h"
#include "ratings/types.h"
#include "sim/peer_provider.h"

namespace fairrec {

/// Controls for Recommender.
struct RecommenderOptions {
  PeerFinderOptions peers;
  /// Size of the single-user recommendation list A_u (§III-A).
  int32_t top_k = 10;
};

/// Relevance estimates of one group member for the shared candidate items.
struct MemberRelevance {
  UserId user = kInvalidUserId;
  /// Peers used for this member (Def. 1, excluding the group).
  std::vector<Peer> peers;
  /// relevance(u, i) for each candidate item with a defined estimate,
  /// ordered by ascending item id.
  std::vector<ScoredItem> relevance;
};

/// Single-user collaborative-filtering recommender (§III-A): peers via
/// Def. 1, relevance via Eq. 1, A_u via top-k.
///
/// Peers always come from a prebuilt PeerProvider — an engine-built
/// PeerIndex for rating similarity (what a serve::ServingSnapshot hands
/// out), or a DensePeerAdapter that evaluates any other simU once per pair.
///
/// Queries are const and safe to run concurrently from many threads against
/// one instance (the underlying matrix and peer graph are immutable); the
/// Scratch-taking overloads let a serving worker reuse one set of dense
/// accumulators across requests.
class Recommender {
 public:
  /// `peers->num_users()` must match the matrix. `matrix` and `peers` must
  /// outlive this object. A per-query peer graph (e.g. the PeerIndex the
  /// MapReduce Job 2 emitted for one group) gets its own Recommender.
  Recommender(const RatingMatrix* matrix, const PeerProvider* peers,
              RecommenderOptions options = {});

  /// A_u over the items `u` has not rated. Returns InvalidArgument for an
  /// unknown user.
  Result<std::vector<ScoredItem>> RecommendForUser(UserId u) const;

  /// Same, accumulating Eq. 1 through a caller-owned scratch (one per
  /// serving worker).
  Result<std::vector<ScoredItem>> RecommendForUser(
      UserId u, RelevanceEstimator::Scratch& scratch) const;

  /// Per-member relevance over the *group candidate set* (items unrated by
  /// every member — the output of the paper's Job 1), with peers drawn from
  /// outside the group (§IV). This is the input both to the group
  /// aggregation (Def. 2, GroupContext::Build) and to Algorithm 1's A_u
  /// lists. One relevance scratch is shared across all members of the query.
  Result<std::vector<MemberRelevance>> RelevanceForGroup(const Group& group) const;

  /// Same, through a caller-owned scratch.
  Result<std::vector<MemberRelevance>> RelevanceForGroup(
      const Group& group, RelevanceEstimator::Scratch& scratch) const;

  const RecommenderOptions& options() const { return options_; }
  const RatingMatrix& matrix() const { return *matrix_; }

 private:
  const RatingMatrix* matrix_;
  PeerFinder peer_finder_;
  RelevanceEstimator estimator_;
  RecommenderOptions options_;
};

}  // namespace fairrec

#endif  // FAIRREC_CF_RECOMMENDER_H_
