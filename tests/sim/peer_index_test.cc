// Sparse-vs-dense parity suite: the engine-built PeerIndex must reproduce,
// exactly, the peer sets the naive Def. 1 scan derives from the dense
// SimilarityMatrix path. Both routes finish Pearson through the same
// sufficient-statistics engine, so every comparison below is bitwise
// (EXPECT_EQ on doubles), not tolerance-based.

#include "sim/peer_index.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cf/peer_finder.h"
#include "common/random.h"
#include "ratings/rating_matrix.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_adapter.h"
#include "sim/rating_similarity.h"
#include "sim/similarity_matrix.h"
#include "tests/oracle/naive_peers.h"

namespace fairrec {
namespace {

RatingMatrix MakeRandomMatrix(int32_t num_users, int32_t num_items,
                              double density, uint64_t seed) {
  Rng rng(seed);
  RatingMatrixBuilder builder;
  builder.Reserve(num_users, num_items);
  for (UserId u = 0; u < num_users; ++u) {
    for (ItemId i = 0; i < num_items; ++i) {
      if (!rng.NextBool(density)) continue;
      EXPECT_TRUE(
          builder.Add(u, i, static_cast<Rating>(rng.UniformInt(1, 5))).ok());
    }
  }
  return std::move(builder.Build()).ValueOrDie();
}

/// The dense reference: the naive Def. 1 scan over a precomputed
/// SimilarityMatrix.
std::vector<std::vector<Peer>> DensePeerSets(const RatingMatrix& matrix,
                                             const RatingSimilarityOptions& options,
                                             const PeerFinderOptions& finder_options) {
  const RatingSimilarity base(&matrix, options);
  const auto cached =
      std::move(SimilarityMatrix::Precompute(base, matrix.num_users()))
          .ValueOrDie();
  std::vector<std::vector<Peer>> sets;
  sets.reserve(static_cast<size_t>(matrix.num_users()));
  for (UserId u = 0; u < matrix.num_users(); ++u) {
    sets.push_back(NaivePeers(*cached, matrix.num_users(), u, finder_options));
  }
  return sets;
}

void ExpectIndexMatchesDense(const RatingMatrix& matrix,
                             const RatingSimilarityOptions& options,
                             double delta, int32_t max_peers) {
  PeerIndexOptions peer_options;
  peer_options.delta = delta;
  peer_options.max_peers_per_user = max_peers;
  const PairwiseSimilarityEngine engine(&matrix, options);
  const PeerIndex index =
      std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();

  PeerFinderOptions finder_options;
  finder_options.delta = delta;
  finder_options.max_peers = max_peers;
  const auto dense = DensePeerSets(matrix, options, finder_options);

  for (UserId u = 0; u < matrix.num_users(); ++u) {
    const auto sparse = index.PeersOf(u);
    const std::vector<Peer> got(sparse.begin(), sparse.end());
    EXPECT_EQ(got, dense[static_cast<size_t>(u)])
        << "u=" << u << " delta=" << delta << " max_peers=" << max_peers
        << " min_overlap=" << options.min_overlap
        << " intersection_means=" << options.intersection_means;
  }
}

TEST(PeerIndexParityTest, MatchesNaiveScanAcrossOptionGrid) {
  const RatingMatrix matrix = MakeRandomMatrix(70, 45, 0.15, 42);
  for (const bool intersection : {false, true}) {
    for (const int32_t min_overlap : {1, 2, 4}) {
      for (const double delta : {0.0, 0.1, 0.4}) {
        RatingSimilarityOptions options;
        options.intersection_means = intersection;
        options.min_overlap = min_overlap;
        ExpectIndexMatchesDense(matrix, options, delta, /*max_peers=*/0);
      }
    }
  }
}

TEST(PeerIndexParityTest, MatchesDenseUnderShiftedScale) {
  const RatingMatrix matrix = MakeRandomMatrix(60, 40, 0.2, 7);
  RatingSimilarityOptions options;
  options.shift_to_unit_interval = true;
  for (const double delta : {0.5, 0.55, 0.7}) {
    ExpectIndexMatchesDense(matrix, options, delta, /*max_peers=*/0);
  }
}

TEST(PeerIndexParityTest, DeltaBoundaryPairIsIncludedOnBothPaths) {
  // Def. 1 is inclusive (simU >= delta). Setting delta to the exact stored
  // similarity of a real pair keeps that pair on both paths; both routes
  // finish Pearson through the engine, so the comparison is bit-for-bit.
  const RatingMatrix matrix = MakeRandomMatrix(40, 30, 0.25, 11);
  const PairwiseSimilarityEngine engine(&matrix, {});
  const auto packed = std::move(engine.ComputeAll()).ValueOrDie();

  // The largest off-diagonal similarity is guaranteed to be somebody's peer.
  double boundary = 0.0;
  for (const double sim : packed) boundary = std::max(boundary, sim);
  ASSERT_GT(boundary, 0.0) << "corpus produced no positive similarity";

  ExpectIndexMatchesDense(matrix, {}, boundary, /*max_peers=*/0);

  PeerIndexOptions peer_options;
  peer_options.delta = boundary;
  const PeerIndex index =
      std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();
  EXPECT_GT(index.num_entries(), 0);
  // Nudging delta past the boundary evicts the pair from both paths.
  peer_options.delta = std::nextafter(boundary, 2.0);
  const PeerIndex above =
      std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();
  EXPECT_EQ(above.num_entries(), 0);
}

TEST(PeerIndexParityTest, MinOverlapDropsThinPairsOnBothPaths) {
  // Users 0 and 1 share exactly 3 co-rated items with strong correlation;
  // min_overlap 4 must erase the pair from sparse and dense alike.
  RatingMatrixBuilder builder;
  builder.Reserve(3, 6);
  for (ItemId i = 0; i < 3; ++i) {
    ASSERT_TRUE(builder.Add(0, i, static_cast<Rating>(i + 1)).ok());
    ASSERT_TRUE(builder.Add(1, i, static_cast<Rating>(i + 2)).ok());
  }
  for (ItemId i = 3; i < 6; ++i) {
    ASSERT_TRUE(builder.Add(2, i, 3.0).ok());
  }
  const RatingMatrix matrix = std::move(builder.Build()).ValueOrDie();

  for (const int32_t min_overlap : {2, 3, 4}) {
    RatingSimilarityOptions options;
    options.min_overlap = min_overlap;
    ExpectIndexMatchesDense(matrix, options, 0.5, /*max_peers=*/0);

    PeerIndexOptions peer_options;
    peer_options.delta = 0.5;
    const PairwiseSimilarityEngine engine(&matrix, options);
    const PeerIndex index =
        std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();
    if (min_overlap <= 3) {
      EXPECT_EQ(index.PeersOf(0).size(), 1u) << "min_overlap=" << min_overlap;
    } else {
      EXPECT_TRUE(index.PeersOf(0).empty());
    }
  }
}

TEST(PeerIndexParityTest, MaxPeersTieBreakingMatchesDense) {
  // Users 1..4 rate identically, so every pair among them has similarity
  // exactly 1.0 — four-way ties. The capped heap must keep the same peers
  // the dense path's nth_element keeps: descending similarity, then
  // ascending id.
  RatingMatrixBuilder builder;
  builder.Reserve(6, 4);
  for (UserId u = 1; u <= 4; ++u) {
    for (ItemId i = 0; i < 4; ++i) {
      ASSERT_TRUE(builder.Add(u, i, static_cast<Rating>(i + 1)).ok());
    }
  }
  ASSERT_TRUE(builder.Add(0, 0, 4.0).ok());
  ASSERT_TRUE(builder.Add(0, 1, 4.0).ok());
  ASSERT_TRUE(builder.Add(5, 0, 1.0).ok());
  const RatingMatrix matrix = std::move(builder.Build()).ValueOrDie();

  for (const int32_t cap : {1, 2, 3}) {
    ExpectIndexMatchesDense(matrix, {}, 0.9, cap);
  }

  PeerIndexOptions peer_options;
  peer_options.delta = 0.9;
  peer_options.max_peers_per_user = 2;
  const PairwiseSimilarityEngine engine(&matrix, {});
  const PeerIndex index =
      std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();
  const auto peers = index.PeersOf(1);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0].user, 2);  // lowest ids win the tie
  EXPECT_EQ(peers[1].user, 3);
  EXPECT_EQ(peers[0].similarity, peers[1].similarity);  // genuinely tied
  EXPECT_NEAR(peers[0].similarity, 1.0, 1e-12);
}

TEST(PeerIndexParityTest, ThreadAndBlockShapeDoNotChangeIndex) {
  // The concurrent heap-merge must be deterministic: tiles race to offer
  // into the same user's list, but the retained set is defined by the
  // BetterPeer total order alone.
  const RatingMatrix matrix = MakeRandomMatrix(50, 30, 0.2, 3);
  PeerIndexOptions peer_options;
  peer_options.delta = 0.1;
  peer_options.max_peers_per_user = 4;

  PairwiseEngineOptions reference_shape;
  reference_shape.num_threads = 1;
  const PeerIndex reference =
      std::move(PairwiseSimilarityEngine(&matrix, {}, reference_shape)
                    .BuildPeerIndex(peer_options))
          .ValueOrDie();

  for (const size_t threads : {2u, 4u}) {
    for (const int32_t block : {3, 17, 50}) {
      PairwiseEngineOptions shape;
      shape.num_threads = threads;
      shape.block_users = block;
      const PeerIndex got =
          std::move(PairwiseSimilarityEngine(&matrix, {}, shape)
                        .BuildPeerIndex(peer_options))
              .ValueOrDie();
      ASSERT_EQ(got.num_entries(), reference.num_entries())
          << "threads=" << threads << " block=" << block;
      for (UserId u = 0; u < matrix.num_users(); ++u) {
        const auto a = got.PeersOf(u);
        const auto b = reference.PeersOf(u);
        EXPECT_EQ(std::vector<Peer>(a.begin(), a.end()),
                  std::vector<Peer>(b.begin(), b.end()))
            << "threads=" << threads << " block=" << block << " u=" << u;
      }
    }
  }
}

TEST(PeerIndexTest, CappedBuildBoundsStorage) {
  const RatingMatrix matrix = MakeRandomMatrix(120, 40, 0.3, 9);
  PeerIndexOptions peer_options;
  peer_options.delta = 0.0;  // admit everything: worst case for storage
  peer_options.max_peers_per_user = 5;
  const PairwiseSimilarityEngine engine(&matrix, {});
  const PeerIndex index =
      std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();

  const size_t cap_bytes =
      static_cast<size_t>(matrix.num_users()) * 5 * sizeof(Peer) +
      (static_cast<size_t>(matrix.num_users()) + 1) * sizeof(size_t);
  EXPECT_LE(index.StorageBytes(), cap_bytes);
  // The build itself must also stay O(U * k): lists + CSR, never U^2.
  EXPECT_LE(index.build_peak_bytes(), 2 * cap_bytes);
  for (UserId u = 0; u < matrix.num_users(); ++u) {
    EXPECT_LE(index.PeersOf(u).size(), 5u);
  }
}

TEST(PeerIndexTest, EmptyAndOutOfRangeLookups) {
  const PeerIndex empty;
  EXPECT_EQ(empty.num_users(), 0);
  EXPECT_TRUE(empty.PeersOf(0).empty());
  EXPECT_TRUE(empty.PeersOf(-1).empty());

  PeerIndex::Builder builder(3, {});
  builder.Offer(0, 0, 1.0);   // self: ignored
  builder.Offer(-1, 1, 1.0);  // out of range: ignored
  builder.Offer(0, 9, 1.0);   // peer out of range: ignored
  builder.Offer(0, 2, 0.8);
  const PeerIndex index = std::move(builder).Build();
  EXPECT_EQ(index.num_entries(), 1);
  ASSERT_EQ(index.PeersOf(0).size(), 1u);
  EXPECT_EQ(index.PeersOf(0)[0], (Peer{2, 0.8}));
  EXPECT_TRUE(index.PeersOf(5).empty());
}

TEST(DensePeerAdapterTest, MatchesNaiveScanOverSameSimilarity) {
  // The adapter is the PeerProvider for bases with no sufficient-statistics
  // decomposition; over a cached Pearson matrix it must agree with the scan
  // path exactly.
  const RatingMatrix matrix = MakeRandomMatrix(45, 30, 0.2, 13);
  RatingSimilarityOptions options;
  options.shift_to_unit_interval = true;
  const RatingSimilarity base(&matrix, options);
  const auto cached =
      std::move(SimilarityMatrix::Precompute(base, matrix.num_users()))
          .ValueOrDie();

  PeerIndexOptions peer_options;
  peer_options.delta = 0.55;
  const DensePeerAdapter adapter(*cached, matrix.num_users(), peer_options);
  EXPECT_EQ(adapter.name(), "peers(cached-pearson)");

  PeerFinderOptions finder_options;
  finder_options.delta = 0.55;
  for (UserId u = 0; u < matrix.num_users(); ++u) {
    const auto sparse = adapter.PeersOf(u);
    EXPECT_EQ(std::vector<Peer>(sparse.begin(), sparse.end()),
              NaivePeers(*cached, matrix.num_users(), u, finder_options))
        << "u=" << u;
  }
}

}  // namespace
}  // namespace fairrec
