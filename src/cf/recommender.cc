#include "cf/recommender.h"

#include <string>
#include <unordered_set>
#include <utility>

#include "cf/top_k.h"
#include "common/logging.h"

namespace fairrec {

Recommender::Recommender(const RatingMatrix* matrix, const PeerProvider* peers,
                         RecommenderOptions options)
    : matrix_(matrix),
      peer_finder_(peers, options.peers),
      estimator_(matrix),
      options_(options) {
  FAIRREC_CHECK(matrix != nullptr);
  // Peers index straight into the rating matrix (Eq. 1 walks their rows), so
  // the two populations must agree.
  FAIRREC_CHECK(peers->num_users() == matrix->num_users());
}

Result<std::vector<ScoredItem>> Recommender::RecommendForUser(UserId u) const {
  RelevanceEstimator::Scratch scratch;
  return RecommendForUser(u, scratch);
}

Result<std::vector<ScoredItem>> Recommender::RecommendForUser(
    UserId u, RelevanceEstimator::Scratch& scratch) const {
  if (!matrix_->IsValidUser(u)) {
    return Status::InvalidArgument("unknown user id: " + std::to_string(u));
  }
  const std::vector<Peer> peers = peer_finder_.FindPeers(u);
  const std::vector<ItemId> unrated = matrix_->ItemsUnratedBy(u);
  const std::vector<ScoredItem> scored =
      estimator_.EstimateAll(peers, unrated, scratch);
  return SelectTopK(scored, options_.top_k);
}

Result<std::vector<MemberRelevance>> Recommender::RelevanceForGroup(
    const Group& group) const {
  RelevanceEstimator::Scratch scratch;
  return RelevanceForGroup(group, scratch);
}

Result<std::vector<MemberRelevance>> Recommender::RelevanceForGroup(
    const Group& group, RelevanceEstimator::Scratch& scratch) const {
  if (group.empty()) {
    return Status::InvalidArgument("group must not be empty");
  }
  std::unordered_set<UserId> seen;
  for (const UserId u : group) {
    if (!matrix_->IsValidUser(u)) {
      return Status::InvalidArgument("unknown user id in group: " +
                                     std::to_string(u));
    }
    if (!seen.insert(u).second) {
      return Status::InvalidArgument("duplicate user id in group: " +
                                     std::to_string(u));
    }
  }

  // Job-1 semantics: candidates are the items no member has rated.
  const std::vector<ItemId> candidates = matrix_->ItemsUnratedByAll(group);

  // One caregiver query = one scratch: every member's Eq. 1 accumulation
  // reuses the same dense buffers (the serving layer passes a per-worker
  // scratch so even consecutive queries share them).
  std::vector<MemberRelevance> out;
  out.reserve(group.size());
  for (const UserId u : group) {
    MemberRelevance member;
    member.user = u;
    // Job-1 semantics: potential peers are users outside the group.
    member.peers = peer_finder_.FindPeers(u, group);
    member.relevance = estimator_.EstimateAll(member.peers, candidates, scratch);
    out.push_back(std::move(member));
  }
  return out;
}

}  // namespace fairrec
