#include "cf/recommender.h"

#include <algorithm>
#include <utility>

#include <gtest/gtest.h>

#include "cf/top_k.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_index.h"
#include "sim/rating_similarity.h"
#include "sim/similarity_matrix.h"

namespace fairrec {
namespace {

/// Fixed small world: 6 users, 8 items, cluster structure (users 0-2 like
/// even items; users 3-5 like odd items).
RatingMatrix ClusteredMatrix() {
  RatingMatrixBuilder builder;
  auto rate = [&builder](UserId u, ItemId i, Rating r) {
    ASSERT_TRUE(builder.Add(u, i, r).ok());
  };
  for (UserId u = 0; u < 3; ++u) {
    for (ItemId i = 0; i < 8; ++i) {
      // Leave item (u * 2) unrated by user u so there is something to
      // recommend inside the cluster's taste.
      if (i == u * 2) continue;
      rate(u, i, i % 2 == 0 ? 5 : 2);
    }
  }
  for (UserId u = 3; u < 6; ++u) {
    for (ItemId i = 0; i < 8; ++i) {
      if (i == (u - 3) * 2 + 1) continue;
      rate(u, i, i % 2 == 1 ? 5 : 2);
    }
  }
  return std::move(builder.Build()).ValueOrDie();
}

RecommenderOptions DefaultOptions() {
  RecommenderOptions options;
  options.peers.delta = 0.3;
  options.top_k = 3;
  return options;
}

TEST(RecommenderTest, RejectsUnknownUser) {
  const RatingMatrix m = ClusteredMatrix();
  const RatingSimilarity sim(&m);
  const Recommender rec =
      Recommender::ForSimilarityScan(&m, &sim, DefaultOptions());
  EXPECT_TRUE(rec.RecommendForUser(99).status().IsInvalidArgument());
  EXPECT_TRUE(rec.RecommendForUser(-1).status().IsInvalidArgument());
}

TEST(RecommenderTest, RecommendsOnlyUnratedItems) {
  const RatingMatrix m = ClusteredMatrix();
  const RatingSimilarity sim(&m);
  const Recommender rec =
      Recommender::ForSimilarityScan(&m, &sim, DefaultOptions());
  const auto recs = rec.RecommendForUser(0);
  ASSERT_TRUE(recs.ok());
  for (const ScoredItem& s : *recs) {
    EXPECT_FALSE(m.HasRating(0, s.item)) << "item " << s.item;
  }
}

TEST(RecommenderTest, ClusterTasteDrivesTopRecommendation) {
  const RatingMatrix m = ClusteredMatrix();
  const RatingSimilarity sim(&m);
  const Recommender rec =
      Recommender::ForSimilarityScan(&m, &sim, DefaultOptions());
  // User 0's only unrated item is 0 (even => loved by the cluster).
  const auto recs = rec.RecommendForUser(0);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].item, 0);
  EXPECT_GT((*recs)[0].score, 4.0);
}

TEST(RecommenderTest, TopKIsBounded) {
  const RatingMatrix m = ClusteredMatrix();
  const RatingSimilarity sim(&m);
  RecommenderOptions options = DefaultOptions();
  options.top_k = 1;
  const Recommender rec =
      Recommender::ForSimilarityScan(&m, &sim, options);
  const auto recs = rec.RecommendForUser(1);
  ASSERT_TRUE(recs.ok());
  EXPECT_LE(recs->size(), 1u);
}

TEST(RecommenderGroupTest, RejectsBadGroups) {
  const RatingMatrix m = ClusteredMatrix();
  const RatingSimilarity sim(&m);
  const Recommender rec =
      Recommender::ForSimilarityScan(&m, &sim, DefaultOptions());
  EXPECT_TRUE(rec.RelevanceForGroup({}).status().IsInvalidArgument());
  EXPECT_TRUE(rec.RelevanceForGroup({0, 0}).status().IsInvalidArgument());
  EXPECT_TRUE(rec.RelevanceForGroup({0, 42}).status().IsInvalidArgument());
}

TEST(RecommenderGroupTest, CandidatesAreUnratedByEveryMember) {
  const RatingMatrix m = ClusteredMatrix();
  const RatingSimilarity sim(&m);
  const Recommender rec =
      Recommender::ForSimilarityScan(&m, &sim, DefaultOptions());
  const Group group{0, 1};
  const auto members = rec.RelevanceForGroup(group);
  ASSERT_TRUE(members.ok());
  const std::vector<ItemId> candidates = m.ItemsUnratedByAll(group);
  for (const MemberRelevance& member : *members) {
    for (const ScoredItem& s : member.relevance) {
      EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                     s.item))
          << "item " << s.item << " rated by some member";
    }
  }
}

TEST(RecommenderGroupTest, PeersExcludeGroupMembers) {
  const RatingMatrix m = ClusteredMatrix();
  const RatingSimilarity sim(&m);
  const Recommender rec =
      Recommender::ForSimilarityScan(&m, &sim, DefaultOptions());
  const Group group{0, 1, 2};
  const auto members = rec.RelevanceForGroup(group);
  ASSERT_TRUE(members.ok());
  for (const MemberRelevance& member : *members) {
    for (const Peer& peer : member.peers) {
      EXPECT_TRUE(std::find(group.begin(), group.end(), peer.user) ==
                  group.end())
          << "peer " << peer.user << " is a group member";
    }
  }
}

TEST(RecommenderGroupTest, MemberTopKIsPrefixOfRelevanceOrdering) {
  const RatingMatrix m = ClusteredMatrix();
  const RatingSimilarity sim(&m);
  const Recommender rec =
      Recommender::ForSimilarityScan(&m, &sim, DefaultOptions());
  const auto members = rec.RelevanceForGroup({0, 3});
  ASSERT_TRUE(members.ok());
  for (const MemberRelevance& member : *members) {
    const std::vector<ScoredItem> top_k =
        SelectTopK(member.relevance, DefaultOptions().top_k);
    std::vector<ScoredItem> reference = member.relevance;
    std::sort(reference.begin(), reference.end(), ScoredItemBetter);
    reference.resize(std::min(reference.size(), top_k.size()));
    EXPECT_EQ(top_k, reference);
  }
}

TEST(RecommenderSparseTest, ProviderModeMatchesScanMode) {
  // The engine-built peer graph and the O(U)-scan path must produce the same
  // single-user lists and the same group relevance tables, exactly. The scan
  // side reads the cached matrix (which delegates to the same engine), so
  // every compared double is bit-identical by construction.
  const RatingMatrix m = ClusteredMatrix();
  const RatingSimilarity base(&m);
  const auto sim =
      std::move(SimilarityMatrix::Precompute(base, m.num_users())).ValueOrDie();
  const Recommender scan =
      Recommender::ForSimilarityScan(&m, sim.get(), DefaultOptions());

  PeerIndexOptions peer_options;
  peer_options.delta = DefaultOptions().peers.delta;
  const PairwiseSimilarityEngine engine(&m, {});
  const PeerIndex index =
      std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();
  const Recommender sparse(&m, &index, DefaultOptions());

  for (UserId u = 0; u < m.num_users(); ++u) {
    EXPECT_EQ(std::move(sparse.RecommendForUser(u)).ValueOrDie(),
              std::move(scan.RecommendForUser(u)).ValueOrDie())
        << "u=" << u;
  }

  const Group group{0, 3};
  const auto scan_members = std::move(scan.RelevanceForGroup(group)).ValueOrDie();
  const auto sparse_members =
      std::move(sparse.RelevanceForGroup(group)).ValueOrDie();
  ASSERT_EQ(sparse_members.size(), scan_members.size());
  for (size_t i = 0; i < scan_members.size(); ++i) {
    EXPECT_EQ(sparse_members[i].user, scan_members[i].user);
    EXPECT_EQ(sparse_members[i].peers, scan_members[i].peers);
    EXPECT_EQ(sparse_members[i].relevance, scan_members[i].relevance);
    const int32_t k = DefaultOptions().top_k;
    EXPECT_EQ(SelectTopK(sparse_members[i].relevance, k),
              SelectTopK(scan_members[i].relevance, k));
  }
}

TEST(RecommenderSparseTest, PerQueryProviderOverridesTheBuiltInFinder) {
  const RatingMatrix m = ClusteredMatrix();
  const RatingSimilarity sim(&m);
  const Recommender rec =
      Recommender::ForSimilarityScan(&m, &sim, DefaultOptions());

  // A provider that only knows user 0 <-> user 5 forces every other member's
  // peer set empty, whatever the built-in finder would say.
  PeerIndex::Builder builder(m.num_users(), {});
  builder.OfferPair(0, 5, 0.9);
  const PeerIndex index = std::move(builder).Build();

  const auto members =
      std::move(rec.RelevanceForGroup({0, 1}, index)).ValueOrDie();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].peers, (std::vector<Peer>{{5, 0.9}}));
  EXPECT_TRUE(members[1].peers.empty());
}

TEST(RecommenderGroupTest, RelevanceListsAscendingByItem) {
  const RatingMatrix m = ClusteredMatrix();
  const RatingSimilarity sim(&m);
  const Recommender rec =
      Recommender::ForSimilarityScan(&m, &sim, DefaultOptions());
  const auto members = rec.RelevanceForGroup({0, 4});
  ASSERT_TRUE(members.ok());
  for (const MemberRelevance& member : *members) {
    for (size_t i = 1; i < member.relevance.size(); ++i) {
      EXPECT_LT(member.relevance[i - 1].item, member.relevance[i].item);
    }
  }
}

}  // namespace
}  // namespace fairrec
