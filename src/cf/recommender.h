#ifndef FAIRREC_CF_RECOMMENDER_H_
#define FAIRREC_CF_RECOMMENDER_H_

#include <vector>

#include "cf/peer_finder.h"
#include "cf/relevance_estimator.h"
#include "common/result.h"
#include "ratings/rating_matrix.h"
#include "ratings/types.h"
#include "sim/peer_provider.h"
#include "sim/user_similarity.h"

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
/// Construction has exactly one primary path — the sparse serving
/// constructor over a prebuilt PeerProvider, which is what a
/// serve::ServingSnapshot hands out — plus one explicitly-named factory,
/// ForSimilarityScan, for evaluation code that wants the original O(U)
/// similarity sweep over a measure nobody indexed.
///
/// Queries are const and safe to run concurrently from many threads against
/// one instance (the underlying matrix and peer graph are immutable); the
/// Scratch-taking overloads let a serving worker reuse one set of dense
/// accumulators across requests instead of leaning on the estimator's
/// thread-local fallback.
class Recommender {
 public:
  /// Sparse mode — the serving path that never touches a dense similarity
  /// structure: peers come from a prebuilt peer graph (an engine-built
  /// PeerIndex or a DensePeerAdapter). `peers->num_users()` must match the
  /// matrix. `matrix` and `peers` must outlive this object.
  Recommender(const RatingMatrix* matrix, const PeerProvider* peers,
              RecommenderOptions options = {});

  /// Scan mode, for eval code and ad-hoc measures: peers found by an O(U)
  /// similarity sweep per query. Deliberately a named factory, not a
  /// constructor — serving code should never pick it up by overload
  /// accident. `matrix` and `similarity` must outlive the result.
  static Recommender ForSimilarityScan(const RatingMatrix* matrix,
                                       const UserSimilarity* similarity,
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
  /// aggregation (Def. 2) and to Algorithm 1's A_u lists. One relevance
  /// scratch is shared across all members of the query.
  Result<std::vector<MemberRelevance>> RelevanceForGroup(const Group& group) const;

  /// Same, through a caller-owned scratch.
  Result<std::vector<MemberRelevance>> RelevanceForGroup(
      const Group& group, RelevanceEstimator::Scratch& scratch) const;

  /// Same flow, but peers come from `peers` instead of the recommender's own
  /// finder — e.g. the PeerIndex the MapReduce Job 2 emitted for exactly this
  /// group. Group members are still excluded from each other's peer sets and
  /// this recommender's PeerFinderOptions still apply. Delegates to the one
  /// shared query path.
  Result<std::vector<MemberRelevance>> RelevanceForGroup(
      const Group& group, const PeerProvider& peers) const;

  /// Per-query provider and caller-owned scratch together.
  Result<std::vector<MemberRelevance>> RelevanceForGroup(
      const Group& group, const PeerProvider& peers,
      RelevanceEstimator::Scratch& scratch) const;

  const RecommenderOptions& options() const { return options_; }
  const RatingMatrix& matrix() const { return *matrix_; }

 private:
  /// Scan-mode guts behind ForSimilarityScan.
  Recommender(const RatingMatrix* matrix, const UserSimilarity* similarity,
              RecommenderOptions options);

  Result<std::vector<MemberRelevance>> RelevanceForGroupWith(
      const Group& group, const PeerFinder& finder,
      RelevanceEstimator::Scratch& scratch) const;

  const RatingMatrix* matrix_;
  PeerFinder peer_finder_;
  RelevanceEstimator estimator_;
  RecommenderOptions options_;
};

}  // namespace fairrec

#endif  // FAIRREC_CF_RECOMMENDER_H_
