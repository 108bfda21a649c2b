#include "cf/recommender.h"

#include <algorithm>
#include <utility>

#include <gtest/gtest.h>

#include "cf/top_k.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_adapter.h"
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

/// The clustered world served the production way: the engine-built Def. 1
/// peer graph at the default delta under a Recommender.
struct ClusteredWorld {
  RatingMatrix matrix = ClusteredMatrix();
  PeerIndex peers = BuildPeers(matrix);
  Recommender rec{&matrix, &peers, DefaultOptions()};

  static PeerIndex BuildPeers(const RatingMatrix& m) {
    PeerIndexOptions options;
    options.delta = DefaultOptions().peers.delta;
    return std::move(PairwiseSimilarityEngine(&m, {}).BuildPeerIndex(options))
        .ValueOrDie();
  }
};

TEST(RecommenderTest, RejectsUnknownUser) {
  const ClusteredWorld world;
  const Recommender& rec = world.rec;
  EXPECT_TRUE(rec.RecommendForUser(99).status().IsInvalidArgument());
  EXPECT_TRUE(rec.RecommendForUser(-1).status().IsInvalidArgument());
}

TEST(RecommenderTest, RecommendsOnlyUnratedItems) {
  const ClusteredWorld world;
  const RatingMatrix& m = world.matrix;
  const Recommender& rec = world.rec;
  const auto recs = rec.RecommendForUser(0);
  ASSERT_TRUE(recs.ok());
  for (const ScoredItem& s : *recs) {
    EXPECT_FALSE(m.HasRating(0, s.item)) << "item " << s.item;
  }
}

TEST(RecommenderTest, ClusterTasteDrivesTopRecommendation) {
  const ClusteredWorld world;
  const Recommender& rec = world.rec;
  // User 0's only unrated item is 0 (even => loved by the cluster).
  const auto recs = rec.RecommendForUser(0);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].item, 0);
  EXPECT_GT((*recs)[0].score, 4.0);
}

TEST(RecommenderTest, TopKIsBounded) {
  const ClusteredWorld world;
  RecommenderOptions options = DefaultOptions();
  options.top_k = 1;
  const Recommender rec(&world.matrix, &world.peers, options);
  const auto recs = rec.RecommendForUser(1);
  ASSERT_TRUE(recs.ok());
  EXPECT_LE(recs->size(), 1u);
}

TEST(RecommenderGroupTest, RejectsBadGroups) {
  const ClusteredWorld world;
  const Recommender& rec = world.rec;
  EXPECT_TRUE(rec.RelevanceForGroup({}).status().IsInvalidArgument());
  EXPECT_TRUE(rec.RelevanceForGroup({0, 0}).status().IsInvalidArgument());
  EXPECT_TRUE(rec.RelevanceForGroup({0, 42}).status().IsInvalidArgument());
}

TEST(RecommenderGroupTest, CandidatesAreUnratedByEveryMember) {
  const ClusteredWorld world;
  const RatingMatrix& m = world.matrix;
  const Recommender& rec = world.rec;
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
  const ClusteredWorld world;
  const Recommender& rec = world.rec;
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
  const ClusteredWorld world;
  const Recommender& rec = world.rec;
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

TEST(RecommenderSparseTest, EngineGraphMatchesAdapterGraph) {
  // The engine-built peer graph and the DensePeerAdapter (one Compute per
  // pair of an arbitrary measure) must produce the same single-user lists
  // and the same group relevance tables, exactly. The adapter reads the
  // cached matrix (which delegates to the same engine), so every compared
  // double is bit-identical by construction.
  const ClusteredWorld world;
  const RatingMatrix& m = world.matrix;
  const RatingSimilarity base(&m);
  const auto sim =
      std::move(SimilarityMatrix::Precompute(base, m.num_users())).ValueOrDie();
  PeerIndexOptions peer_options;
  peer_options.delta = DefaultOptions().peers.delta;
  const DensePeerAdapter adapter(*sim, m.num_users(), peer_options);
  const Recommender dense(&m, &adapter, DefaultOptions());
  const Recommender& sparse = world.rec;

  for (UserId u = 0; u < m.num_users(); ++u) {
    EXPECT_EQ(std::move(sparse.RecommendForUser(u)).ValueOrDie(),
              std::move(dense.RecommendForUser(u)).ValueOrDie())
        << "u=" << u;
  }

  const Group group{0, 3};
  const auto dense_members =
      std::move(dense.RelevanceForGroup(group)).ValueOrDie();
  const auto sparse_members =
      std::move(sparse.RelevanceForGroup(group)).ValueOrDie();
  ASSERT_EQ(sparse_members.size(), dense_members.size());
  for (size_t i = 0; i < dense_members.size(); ++i) {
    EXPECT_EQ(sparse_members[i].user, dense_members[i].user);
    EXPECT_EQ(sparse_members[i].peers, dense_members[i].peers);
    EXPECT_EQ(sparse_members[i].relevance, dense_members[i].relevance);
    const int32_t k = DefaultOptions().top_k;
    EXPECT_EQ(SelectTopK(sparse_members[i].relevance, k),
              SelectTopK(dense_members[i].relevance, k));
  }
}

TEST(RecommenderSparseTest, HandBuiltIndexDrivesGroupPeers) {
  // A per-query peer graph (the shape of MapReduce Job 2's per-group index)
  // gets its own Recommender. One that only knows user 0 <-> user 5 leaves
  // every other member's peer set empty.
  const RatingMatrix m = ClusteredMatrix();
  PeerIndex::Builder builder(m.num_users(), {});
  builder.OfferPair(0, 5, 0.9);
  const PeerIndex index = std::move(builder).Build();
  const Recommender rec(&m, &index, DefaultOptions());

  const auto members = std::move(rec.RelevanceForGroup({0, 1})).ValueOrDie();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].peers, (std::vector<Peer>{{5, 0.9}}));
  EXPECT_TRUE(members[1].peers.empty());
}

TEST(RecommenderGroupTest, RelevanceListsAscendingByItem) {
  const ClusteredWorld world;
  const Recommender& rec = world.rec;
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
