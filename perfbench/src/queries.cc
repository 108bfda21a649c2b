#include "queries.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

using fairrec::serve::GroupRecRequest;
using fairrec::serve::GroupRecResponse;
using fairrec::serve::RecommendationService;
using fairrec::serve::ServingSnapshot;
using fairrec::serve::UserRecRequest;
using fairrec::serve::UserRecResponse;

fairrec::serve::RecommendationServiceOptions ServiceOptions() {
  fairrec::serve::RecommendationServiceOptions options;
  options.recommender.peers.delta = PeerOptions().delta;
  options.context.require_all_members = false;
  return options;
}

fairrec::PeerIndexOptions PeerOptions() {
  fairrec::PeerIndexOptions options;
  options.delta = 0.1;
  options.max_peers_per_user = 64;
  return options;
}

fairrec::Group DrawGroup(fairrec::Rng& rng, const fairrec::PeerProvider& peers,
                         int32_t num_users) {
  const auto size = static_cast<size_t>(rng.UniformInt(kMinGroupSize, kMaxGroupSize));
  fairrec::Group group;
  const auto add = [&group](fairrec::UserId u) {
    if (std::find(group.begin(), group.end(), u) == group.end()) group.push_back(u);
  };
  if (rng.NextBool(0.5)) {
    const auto anchor = static_cast<fairrec::UserId>(rng.UniformInt(0, num_users - 1));
    add(anchor);
    for (const fairrec::Peer& peer : peers.PeersOf(anchor)) {
      if (group.size() == size) break;
      add(peer.user);
    }
  }
  while (group.size() < size) {
    add(static_cast<fairrec::UserId>(rng.UniformInt(0, num_users - 1)));
  }
  return group;
}

Request DrawRequest(fairrec::Rng& rng, const fairrec::PeerProvider& peers,
                    int32_t num_users, double user_share) {
  Request request;
  if (rng.NextBool(user_share)) {
    request.user.user = static_cast<fairrec::UserId>(rng.UniformInt(0, num_users - 1));
  } else {
    request.is_group = true;
    request.group.members = DrawGroup(rng, peers, num_users);
    request.group.z = kGroupZ;
    request.group.selector = "algorithm1";
  }
  return request;
}

namespace {

template <typename T>
uint64_t HashValue(const T& value, uint64_t hash) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  return Fnv1a(std::string_view(bytes, sizeof(T)), hash);
}

uint64_t HashItems(const std::vector<fairrec::ScoredItem>& items, uint64_t hash) {
  for (const fairrec::ScoredItem& item : items) {
    hash = HashValue(item.item, hash);
    hash = HashValue(item.score, hash);
  }
  return HashValue(items.size(), hash);
}

/// Bitwise equality: the decomposed pipeline runs the same arithmetic, so
/// every double must match to the bit (NaN included).
bool Same(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool SameItems(const std::vector<fairrec::ScoredItem>& a,
               const std::vector<fairrec::ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item || !Same(a[i].score, b[i].score)) return false;
  }
  return true;
}

}  // namespace

uint64_t Digest(const UserRecResponse& response, uint64_t hash) {
  return HashItems(response.items, HashValue(response.generation, hash));
}

uint64_t Digest(const GroupRecResponse& response, uint64_t hash) {
  hash = HashValue(response.generation, hash);
  hash = Fnv1a(response.selector, hash);
  hash = HashItems(response.items, hash);
  hash = HashValue(response.score.fairness, hash);
  hash = HashValue(response.score.relevance_sum, hash);
  hash = HashValue(response.score.value, hash);
  for (const fairrec::serve::MemberSatisfaction& member : response.members) {
    hash = HashValue(member.user, hash);
    hash = HashValue(member.satisfied, hash);
    hash = HashValue(member.relevance_sum, hash);
    hash = HashValue(member.satisfaction, hash);
  }
  return hash;
}

fairrec::Result<std::vector<fairrec::ScoredItem>> RunUserLayers(
    const RecommendationService& service, const ServingSnapshot& snapshot,
    const UserRecRequest& request, RecommendationService::Scratch& scratch,
    LayerTimes* times) {
  const fairrec::Recommender recommender =
      snapshot.MakeRecommender(service.options().recommender);
  const double start = CpuNow();
  auto items = recommender.RecommendForUser(request.user, scratch);
  times->user = CpuNow() - start;
  return items;
}

bool SameUserResponse(const std::vector<fairrec::ScoredItem>& items,
                      const ServingSnapshot& snapshot, const UserRecResponse& response) {
  return response.generation == snapshot.generation && SameItems(items, response.items);
}

bool RunGroupLayers(const RecommendationService& service, const ServingSnapshot& snapshot,
                    const GroupRecRequest& request, RecommendationService::Scratch& scratch,
                    GroupLayers* layers, LayerTimes* times) {
  auto selector = service.selector(request.selector);
  if (!selector.ok()) return false;
  layers->selector = *selector;
  const fairrec::Recommender recommender =
      snapshot.MakeRecommender(service.options().recommender);

  double start = CpuNow();
  auto members = recommender.RelevanceForGroup(request.members, scratch);
  times->group_relevance = CpuNow() - start;
  if (!members.ok()) return false;

  start = CpuNow();
  auto context = fairrec::GroupContext::Build(*members, service.options().context);
  times->group_context = CpuNow() - start;
  if (!context.ok()) return false;

  start = CpuNow();
  auto selection = layers->selector->Select(*context, request.z);
  times->select = CpuNow() - start;
  if (!selection.ok()) return false;

  times->members = static_cast<int64_t>(members->size());
  for (const fairrec::MemberRelevance& member : *members) {
    times->member_peers += static_cast<int64_t>(member.peers.size());
  }
  times->candidates = context->num_candidates();
  layers->context.emplace(std::move(context).value());
  layers->selection.emplace(std::move(selection).value());
  return true;
}

bool SameGroupResponse(const GroupLayers& layers, const ServingSnapshot& snapshot,
                       const GroupRecResponse& response) {
  const fairrec::GroupContext& context = *layers.context;
  const fairrec::Selection& selection = *layers.selection;
  if (response.generation != snapshot.generation ||
      response.selector != layers.selector->name() ||
      response.items.size() != selection.items.size() ||
      response.members.size() != selection.members.size() ||
      !Same(response.score.fairness, selection.score.fairness) ||
      !Same(response.score.relevance_sum, selection.score.relevance_sum) ||
      !Same(response.score.value, selection.score.value)) {
    return false;
  }
  for (size_t i = 0; i < selection.items.size(); ++i) {
    const fairrec::ItemId item = selection.items[i];
    const int32_t index = context.CandidateIndexOf(item);
    if (index < 0 || response.items[i].item != item ||
        !Same(response.items[i].score, context.candidate(index).group_relevance)) {
      return false;
    }
  }
  for (size_t m = 0; m < selection.members.size(); ++m) {
    const fairrec::MemberBreakdown& row = selection.members[m];
    const fairrec::serve::MemberSatisfaction& sat = response.members[m];
    if (sat.user != context.members()[m] || sat.satisfied != row.satisfied ||
        !Same(sat.relevance_sum, row.relevance_sum) ||
        !Same(sat.satisfaction, row.satisfaction)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
