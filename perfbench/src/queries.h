#ifndef FAIRREC_PERFBENCH_QUERIES_H_
#define FAIRREC_PERFBENCH_QUERIES_H_

// The query side shared by the serve and ingest workloads: the request mix,
// response digests, and the decomposed layer pipeline that both checks a
// service response and times its layers.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/group_context.h"
#include "core/selector.h"
#include "serve/recommendation_service.h"
#include "sim/peer_provider.h"

namespace perfbench {

/// Group size range of the mix and the size of every recommended set D.
inline constexpr int32_t kMinGroupSize = 2;
inline constexpr int32_t kMaxGroupSize = 6;
inline constexpr int32_t kGroupZ = 5;

/// Service configuration of both workloads: algorithm1 over the paper's
/// average aggregation, with group candidates kept when at least one member
/// has a defined relevance (under the all-members rule, 6-member groups on
/// a 1%-dense corpus have no candidate at all in a few percent of draws).
fairrec::serve::RecommendationServiceOptions ServiceOptions();

/// Peer-graph build options of every workload: Def. 1 delta 0.1, lists
/// capped at 64 (headroom over the largest group's exclusions).
fairrec::PeerIndexOptions PeerOptions();

struct Request {
  bool is_group = false;
  fairrec::serve::UserRecRequest user;
  fairrec::serve::GroupRecRequest group;
};

/// A group of kMinGroupSize..kMaxGroupSize distinct members: half the draws
/// uniform over the population, half cohesive (a user plus the head of its
/// peer list, topped up uniformly when the list is short).
fairrec::Group DrawGroup(fairrec::Rng& rng, const fairrec::PeerProvider& peers,
                         int32_t num_users);

/// One request of the mix: a single-user query with probability
/// `user_share`, a group query otherwise.
Request DrawRequest(fairrec::Rng& rng, const fairrec::PeerProvider& peers,
                    int32_t num_users, double user_share);

/// Digests of a response's full content (generation, items, scores,
/// per-member satisfaction), chained through `hash`.
uint64_t Digest(const fairrec::serve::UserRecResponse& response, uint64_t hash);
uint64_t Digest(const fairrec::serve::GroupRecResponse& response, uint64_t hash);

/// Seconds each layer of one decomposed query took, and what it saw.
struct LayerTimes {
  double user = 0.0;             // Recommender::RecommendForUser
  double group_relevance = 0.0;  // Recommender::RelevanceForGroup
  double group_context = 0.0;    // GroupContext::Build (Def. 2)
  double select = 0.0;           // ItemSetSelector::Select
  int64_t members = 0;
  int64_t member_peers = 0;
  int64_t candidates = 0;
};

/// The user request run through Recommender::RecommendForUser on
/// `snapshot`, timed into `times`.
fairrec::Result<std::vector<fairrec::ScoredItem>> RunUserLayers(
    const fairrec::serve::RecommendationService& service,
    const fairrec::serve::ServingSnapshot& snapshot,
    const fairrec::serve::UserRecRequest& request,
    fairrec::serve::RecommendationService::Scratch& scratch, LayerTimes* times);

/// Whether `response` equals the layers' result exactly.
bool SameUserResponse(const std::vector<fairrec::ScoredItem>& items,
                      const fairrec::serve::ServingSnapshot& snapshot,
                      const fairrec::serve::UserRecResponse& response);

/// What the group layers computed for one request.
struct GroupLayers {
  const fairrec::ItemSetSelector* selector = nullptr;
  std::optional<fairrec::GroupContext> context;
  std::optional<fairrec::Selection> selection;
};

/// The group request run through RelevanceForGroup -> GroupContext::Build
/// -> ItemSetSelector::Select on `snapshot`, each timed into `times`;
/// false when a layer call fails.
bool RunGroupLayers(const fairrec::serve::RecommendationService& service,
                    const fairrec::serve::ServingSnapshot& snapshot,
                    const fairrec::serve::GroupRecRequest& request,
                    fairrec::serve::RecommendationService::Scratch& scratch,
                    GroupLayers* layers, LayerTimes* times);

/// Whether `response` equals the layers' result exactly.
bool SameGroupResponse(const GroupLayers& layers,
                       const fairrec::serve::ServingSnapshot& snapshot,
                       const fairrec::serve::GroupRecResponse& response);

}  // namespace perfbench

#endif  // FAIRREC_PERFBENCH_QUERIES_H_
