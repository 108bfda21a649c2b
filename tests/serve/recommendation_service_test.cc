#include "serve/recommendation_service.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fairness.h"
#include "core/fairness_heuristic.h"
#include "serve/snapshot_source.h"
#include "sim/incremental_peer_graph.h"
#include "tests/serve/serve_test_util.h"

namespace fairrec {
namespace serve {
namespace {

using serve_testing::ExpectIdentical;
using serve_testing::GraphOptions;
using serve_testing::RandomDelta;
using serve_testing::ServiceOptions;
using serve_testing::SyntheticMatrix;

StaticSnapshotSource StaticSource(RatingMatrix matrix) {
  RatingSimilarityOptions similarity;
  PeerIndexOptions peers;
  peers.delta = 0.1;
  return std::move(StaticSnapshotSource::FromMatrix(std::move(matrix),
                                                    similarity, peers))
      .ValueOrDie();
}

TEST(RecommendationServiceTest, UserResponseMatchesDirectRecommender) {
  const StaticSnapshotSource source = StaticSource(SyntheticMatrix(40, 30, 7));
  const RecommendationService service(&source, ServiceOptions());

  const ServingSnapshot snapshot = source.Acquire();
  EXPECT_EQ(snapshot.generation, 1u);
  const Recommender direct =
      snapshot.MakeRecommender(ServiceOptions().recommender);

  for (const UserId u : {0, 7, 23}) {
    const UserRecResponse response =
        std::move(service.RecommendUser({u, 0})).ValueOrDie();
    EXPECT_EQ(response.generation, 1u);
    const std::vector<ScoredItem> want =
        std::move(direct.RecommendForUser(u)).ValueOrDie();
    EXPECT_EQ(response.items, want);
  }
}

TEST(RecommendationServiceTest, TopKOverrideTruncatesTheList) {
  const StaticSnapshotSource source = StaticSource(SyntheticMatrix(40, 30, 7));
  const RecommendationService service(&source, ServiceOptions());

  const UserRecResponse full =
      std::move(service.RecommendUser({3, 0})).ValueOrDie();
  const UserRecResponse two =
      std::move(service.RecommendUser({3, 2})).ValueOrDie();
  ASSERT_LE(two.items.size(), 2u);
  for (size_t k = 0; k < two.items.size(); ++k) {
    EXPECT_EQ(two.items[k], full.items[k]);
  }
}

TEST(RecommendationServiceTest, GroupResponseMatchesDirectPipeline) {
  const StaticSnapshotSource source = StaticSource(SyntheticMatrix(40, 30, 7));
  const RecommendationService service(&source, ServiceOptions());
  const Group group{1, 5, 9};

  GroupRecRequest request;
  request.members = group;
  request.z = 4;
  request.selector = "algorithm1";
  const GroupRecResponse response =
      std::move(service.RecommendGroup(request)).ValueOrDie();
  EXPECT_EQ(response.selector, "algorithm1");

  // Reference: the same pipeline assembled by hand from the same snapshot.
  const ServingSnapshot snapshot = source.Acquire();
  const Recommender recommender =
      snapshot.MakeRecommender(ServiceOptions().recommender);
  const auto members =
      std::move(recommender.RelevanceForGroup(group)).ValueOrDie();
  const GroupContext context =
      std::move(GroupContext::Build(members, ServiceOptions().context))
          .ValueOrDie();
  const FairnessHeuristic heuristic;
  const Selection want = std::move(heuristic.Select(context, 4)).ValueOrDie();

  ASSERT_EQ(response.items.size(), want.items.size());
  for (size_t k = 0; k < want.items.size(); ++k) {
    EXPECT_EQ(response.items[k].item, want.items[k]);
  }
  EXPECT_EQ(response.score.fairness, want.score.fairness);
  EXPECT_EQ(response.score.relevance_sum, want.score.relevance_sum);
  EXPECT_EQ(response.score.value, want.score.value);

  // Member satisfaction decomposes Def. 3: the satisfied fraction is the
  // fairness factor.
  ASSERT_EQ(response.members.size(), group.size());
  int32_t satisfied = 0;
  for (size_t m = 0; m < group.size(); ++m) {
    EXPECT_EQ(response.members[m].user, group[m]);
    if (response.members[m].satisfied) ++satisfied;
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(satisfied) /
                       static_cast<double>(group.size()),
                   response.score.fairness);
}

TEST(RecommendationServiceTest, AllRegisteredSelectorsServeTheSameRequest) {
  const StaticSnapshotSource source = StaticSource(SyntheticMatrix(40, 30, 7));
  const RecommendationService service(&source, ServiceOptions());

  const std::vector<std::string> names = service.selector_names();
  ASSERT_GE(names.size(), 7u);
  for (const std::string& name : names) {
    GroupRecRequest request;
    request.members = {2, 8, 14};
    request.z = 3;
    request.selector = name;
    const auto response = service.RecommendGroup(request);
    ASSERT_TRUE(response.ok()) << name << ": " << response.status().ToString();
    EXPECT_EQ(response->items.size(), 3u) << name;
    EXPECT_EQ(response->selector, name);
  }
}

TEST(RecommendationServiceTest, AliasesResolveToCanonicalSelectors) {
  const StaticSnapshotSource source = StaticSource(SyntheticMatrix(40, 30, 7));
  const RecommendationService service(&source, ServiceOptions());

  GroupRecRequest request;
  request.members = {2, 8, 14};
  request.z = 3;
  request.selector = "localsearch";  // legacy CLI spelling
  const GroupRecResponse response =
      std::move(service.RecommendGroup(request)).ValueOrDie();
  // The echoed name is canonical, not the alias the request used.
  EXPECT_EQ(response.selector, "local-search");
}

TEST(RecommendationServiceTest, UnknownSelectorIsInvalidArgument) {
  const StaticSnapshotSource source = StaticSource(SyntheticMatrix(40, 30, 7));
  const RecommendationService service(&source, ServiceOptions());

  GroupRecRequest request;
  request.members = {2, 8, 14};
  request.z = 3;
  request.selector = "no-such-selector";
  EXPECT_TRUE(
      service.RecommendGroup(request).status().IsInvalidArgument());
  EXPECT_TRUE(service.selector("no-such-selector").status().IsInvalidArgument());
}

TEST(RecommendationServiceTest, LiveSourceAdvancesGenerationPerDelta) {
  const RatingMatrix matrix = SyntheticMatrix(40, 30, 11);
  LivePeerGraph live(std::move(
      std::move(IncrementalPeerGraph::Build(matrix, GraphOptions())).ValueOrDie()));
  const RecommendationService service(&live, ServiceOptions());

  EXPECT_EQ(live.generation(), 1u);
  const UserRecResponse before =
      std::move(service.RecommendUser({4, 0})).ValueOrDie();
  EXPECT_EQ(before.generation, 1u);

  ASSERT_TRUE(live.ApplyDelta(RandomDelta(matrix, 25, 101)).ok());
  EXPECT_EQ(live.generation(), 2u);
  const UserRecResponse after =
      std::move(service.RecommendUser({4, 0})).ValueOrDie();
  EXPECT_EQ(after.generation, 2u);
}

TEST(RecommendationServiceTest, RetainedSnapshotIsImmuneToDeltas) {
  const RatingMatrix matrix = SyntheticMatrix(40, 30, 13);
  LivePeerGraph live(std::move(
      std::move(IncrementalPeerGraph::Build(matrix, GraphOptions())).ValueOrDie()));
  const RecommendationService service(&live, ServiceOptions());
  RecommendationService::Scratch scratch;

  const ServingSnapshot retained = live.Acquire();
  GroupRecRequest request;
  request.members = {0, 3, 6, 9};
  request.z = 3;
  const GroupRecResponse before =
      std::move(service.RecommendGroupOn(retained, request, scratch))
          .ValueOrDie();

  for (uint64_t round = 0; round < 3; ++round) {
    ASSERT_TRUE(live.ApplyDelta(RandomDelta(matrix, 30, 200 + round)).ok());
  }
  EXPECT_EQ(live.generation(), 4u);

  // The retained generation answers bit-identically after three published
  // deltas: its matrix and index were never touched in place.
  const GroupRecResponse after =
      std::move(service.RecommendGroupOn(retained, request, scratch))
          .ValueOrDie();
  ExpectIdentical(before, after);
  EXPECT_EQ(after.generation, 1u);
}

TEST(RecommendationServiceTest, ScratchAndScratchlessPathsAgree) {
  const StaticSnapshotSource source = StaticSource(SyntheticMatrix(40, 30, 7));
  const RecommendationService service(&source, ServiceOptions());
  RecommendationService::Scratch scratch;

  GroupRecRequest request;
  request.members = {4, 11, 17};
  request.z = 3;
  const GroupRecResponse with_scratch =
      std::move(service.RecommendGroup(request, scratch)).ValueOrDie();
  const GroupRecResponse without =
      std::move(service.RecommendGroup(request)).ValueOrDie();
  ExpectIdentical(with_scratch, without);

  // Back-to-back reuse of the same scratch must not leak state between
  // requests.
  const GroupRecResponse again =
      std::move(service.RecommendGroup(request, scratch)).ValueOrDie();
  ExpectIdentical(with_scratch, again);
}

}  // namespace
}  // namespace serve
}  // namespace fairrec
