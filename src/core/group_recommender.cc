#include "core/group_recommender.h"

#include "cf/top_k.h"
#include "common/logging.h"
#include "core/selector_registry.h"

namespace fairrec {

GroupRecommender::GroupRecommender(const Recommender* recommender,
                                   GroupContextOptions options)
    : recommender_(recommender), options_(options) {
  FAIRREC_CHECK(recommender != nullptr);
}

GroupRecommender::GroupRecommender(const RatingMatrix* matrix,
                                   const PeerProvider* peers,
                                   RecommenderOptions rec_options,
                                   GroupContextOptions options)
    : owned_recommender_(
          std::make_unique<Recommender>(matrix, peers, rec_options)),
      recommender_(owned_recommender_.get()),
      options_(options) {}

Result<GroupContext> GroupRecommender::BuildContext(const Group& group) const {
  RelevanceEstimator::Scratch scratch;
  return BuildContext(group, scratch);
}

Result<GroupContext> GroupRecommender::BuildContext(
    const Group& group, RelevanceEstimator::Scratch& scratch) const {
  FAIRREC_ASSIGN_OR_RETURN(std::vector<MemberRelevance> members,
                           recommender_->RelevanceForGroup(group, scratch));
  return GroupContext::Build(members, options_);
}

Result<GroupContext> GroupRecommender::BuildContext(
    const Group& group, const PeerProvider& peers) const {
  FAIRREC_ASSIGN_OR_RETURN(std::vector<MemberRelevance> members,
                           recommender_->RelevanceForGroup(group, peers));
  return GroupContext::Build(members, options_);
}

Result<std::vector<ScoredItem>> GroupRecommender::TopKForGroup(const Group& group,
                                                               int32_t k) const {
  FAIRREC_ASSIGN_OR_RETURN(GroupContext context, BuildContext(group));
  std::vector<ScoredItem> scored;
  scored.reserve(static_cast<size_t>(context.num_candidates()));
  for (int32_t c = 0; c < context.num_candidates(); ++c) {
    const GroupCandidate candidate = context.candidate(c);
    scored.push_back({candidate.item, candidate.group_relevance});
  }
  return SelectTopK(scored, k);
}

Result<Selection> GroupRecommender::RecommendFair(
    const Group& group, int32_t z, const ItemSetSelector& selector) const {
  FAIRREC_ASSIGN_OR_RETURN(GroupContext context, BuildContext(group));
  return selector.Select(context, z);
}

Result<Selection> GroupRecommender::RecommendFair(
    const Group& group, int32_t z, const ItemSetSelector& selector,
    RelevanceEstimator::Scratch& scratch) const {
  FAIRREC_ASSIGN_OR_RETURN(GroupContext context, BuildContext(group, scratch));
  return selector.Select(context, z);
}

Result<Selection> GroupRecommender::RecommendFair(
    const Group& group, int32_t z, std::string_view selector_spec) const {
  FAIRREC_ASSIGN_OR_RETURN(
      std::unique_ptr<ItemSetSelector> selector,
      SelectorRegistry::Global().CreateFromSpec(selector_spec));
  return RecommendFair(group, z, *selector);
}

}  // namespace fairrec
