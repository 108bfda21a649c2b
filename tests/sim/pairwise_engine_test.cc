#include "sim/pairwise_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ratings/rating_matrix.h"
#include "sim/rating_similarity.h"
#include "sim/similarity_matrix.h"

namespace fairrec {
namespace {

/// Engine results finish Pearson from raw moments instead of centered sums,
/// so they can differ from FinishPearson in the last few ulps.
constexpr double kParityTolerance = 1e-12;

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

/// A matrix exercising every degenerate shape the finish pass must handle:
/// zero-variance rows, empty overlaps, and a user with no ratings at all.
RatingMatrix MakeDegenerateMatrix() {
  RatingMatrixBuilder builder;
  builder.Reserve(6, 6);
  // User 0: constant ratings (zero variance) on items 0..3.
  for (ItemId i = 0; i < 4; ++i) EXPECT_TRUE(builder.Add(0, i, 3.0).ok());
  // User 1: varied ratings overlapping user 0.
  EXPECT_TRUE(builder.Add(1, 0, 1.0).ok());
  EXPECT_TRUE(builder.Add(1, 1, 5.0).ok());
  EXPECT_TRUE(builder.Add(1, 2, 2.0).ok());
  // User 2: rates only items nobody else rates (empty overlap with all).
  EXPECT_TRUE(builder.Add(2, 4, 4.0).ok());
  EXPECT_TRUE(builder.Add(2, 5, 2.0).ok());
  // User 3: exactly one co-rated item with user 1 (overlap below min 2).
  EXPECT_TRUE(builder.Add(3, 0, 5.0).ok());
  // User 4: perfectly correlated with user 1 on their overlap.
  EXPECT_TRUE(builder.Add(4, 0, 2.0).ok());
  EXPECT_TRUE(builder.Add(4, 1, 4.0).ok());
  EXPECT_TRUE(builder.Add(4, 2, 3.0).ok());
  // User 5: no ratings.
  return std::move(builder.Build()).ValueOrDie();
}

std::vector<RatingSimilarityOptions> AllOptionCombinations() {
  std::vector<RatingSimilarityOptions> combos;
  for (const bool intersection : {false, true}) {
    for (const bool shift : {false, true}) {
      for (const int32_t min_overlap : {1, 2, 4}) {
        RatingSimilarityOptions options;
        options.intersection_means = intersection;
        options.shift_to_unit_interval = shift;
        options.min_overlap = min_overlap;
        combos.push_back(options);
      }
    }
  }
  return combos;
}

void ExpectParity(const RatingMatrix& matrix,
                  const RatingSimilarityOptions& options,
                  PairwiseEngineOptions engine_options = {}) {
  const PairwiseSimilarityEngine engine(&matrix, options, engine_options);
  const auto packed = std::move(engine.ComputeAll()).ValueOrDie();
  const RatingSimilarity reference(&matrix, options);

  const int32_t n = matrix.num_users();
  size_t index = 0;
  for (UserId a = 0; a < n; ++a) {
    for (UserId b = a + 1; b < n; ++b, ++index) {
      EXPECT_NEAR(packed[index], reference.Compute(a, b), kParityTolerance)
          << "a=" << a << " b=" << b << " min_overlap=" << options.min_overlap
          << " intersection_means=" << options.intersection_means
          << " shift=" << options.shift_to_unit_interval;
    }
  }
  EXPECT_EQ(index, packed.size());
}

TEST(PairwiseEngineTest, PackedTriangleSize) {
  EXPECT_EQ(PairwiseSimilarityEngine::PackedTriangleSize(0), 0u);
  EXPECT_EQ(PairwiseSimilarityEngine::PackedTriangleSize(1), 0u);
  EXPECT_EQ(PairwiseSimilarityEngine::PackedTriangleSize(2), 1u);
  EXPECT_EQ(PairwiseSimilarityEngine::PackedTriangleSize(100), 4950u);
}

TEST(PairwiseEngineTest, ParityOnRandomMatrixAllOptionCombinations) {
  const RatingMatrix matrix = MakeRandomMatrix(60, 40, 0.15, 42);
  for (const auto& options : AllOptionCombinations()) {
    ExpectParity(matrix, options);
  }
}

TEST(PairwiseEngineTest, ParityOnDegenerateMatrixAllOptionCombinations) {
  const RatingMatrix matrix = MakeDegenerateMatrix();
  for (const auto& options : AllOptionCombinations()) {
    ExpectParity(matrix, options);
  }
}

TEST(PairwiseEngineTest, DegenerateCasesAreExactlyZero) {
  const RatingMatrix matrix = MakeDegenerateMatrix();
  const PairwiseSimilarityEngine engine(&matrix, {});
  const auto packed = std::move(engine.ComputeAll()).ValueOrDie();
  const auto at = [&](UserId a, UserId b) {
    const size_t n = 6;
    const size_t row = static_cast<size_t>(a);
    return packed[row * (n - 1) - row * (row - 1) / 2 +
                  static_cast<size_t>(b) - row - 1];
  };
  // Zero variance on user 0's side.
  EXPECT_EQ(at(0, 1), 0.0);
  // Empty overlap: user 2 shares no items with anyone.
  for (const UserId other : {0, 1}) EXPECT_EQ(at(other, 2), 0.0);
  EXPECT_EQ(at(2, 3), 0.0);
  EXPECT_EQ(at(2, 4), 0.0);
  // Single co-rated item falls below the default min_overlap of 2.
  EXPECT_EQ(at(1, 3), 0.0);
  // User 5 rated nothing.
  for (const UserId other : {0, 1, 2, 3, 4}) EXPECT_EQ(at(other, 5), 0.0);
}

TEST(PairwiseEngineTest, ShiftDoesNotRemapDegeneratePairsToHalf) {
  // FinishPearson returns 0 (not 0.5) for undefined pairs even under
  // shift_to_unit_interval; the engine must match.
  const RatingMatrix matrix = MakeDegenerateMatrix();
  RatingSimilarityOptions options;
  options.shift_to_unit_interval = true;
  const PairwiseSimilarityEngine engine(&matrix, options);
  const auto packed = std::move(engine.ComputeAll()).ValueOrDie();
  EXPECT_EQ(packed[0], 0.0);  // pair (0, 1): zero variance side
}

TEST(PairwiseEngineTest, NonRepresentableConstantRowsHaveZeroSimilarity) {
  // Every co-rating is 3.1 — not exactly representable, so the raw-moment
  // variance cancels to rounding noise instead of 0. The relative-epsilon
  // guard must still classify the row as zero-variance. (The centered
  // FinishPearson form can report a spurious +-1 here, so this is engine-only
  // rather than a parity check.)
  RatingMatrixBuilder builder;
  builder.allow_any_scale(true).Reserve(2, 3);
  for (ItemId i = 0; i < 3; ++i) {
    ASSERT_TRUE(builder.Add(0, i, 3.1).ok());
    ASSERT_TRUE(builder.Add(1, i, 3.1).ok());
  }
  const RatingMatrix matrix = std::move(builder.Build()).ValueOrDie();
  for (const bool intersection : {false, true}) {
    RatingSimilarityOptions options;
    options.intersection_means = intersection;
    const PairwiseSimilarityEngine engine(&matrix, options);
    const auto packed = std::move(engine.ComputeAll()).ValueOrDie();
    ASSERT_EQ(packed.size(), 1u);
    EXPECT_EQ(packed[0], 0.0) << "intersection_means=" << intersection;
  }
}

TEST(PairwiseEngineTest, SingleAndEmptyPopulations) {
  RatingMatrixBuilder builder;
  builder.Reserve(1, 3);
  ASSERT_TRUE(builder.Add(0, 0, 4.0).ok());
  const RatingMatrix one = std::move(builder.Build()).ValueOrDie();
  const PairwiseSimilarityEngine engine(&one, {});
  const auto packed = std::move(engine.ComputeAll()).ValueOrDie();
  EXPECT_TRUE(packed.empty());
}

TEST(PairwiseEngineTest, ThreadAndBlockShapeDoNotChangeResults) {
  // Each pair's statistics accumulate in ascending item order no matter how
  // the triangle is tiled, so results are bitwise identical across shapes.
  const RatingMatrix matrix = MakeRandomMatrix(50, 30, 0.2, 7);
  RatingSimilarityOptions options;
  options.intersection_means = true;

  PairwiseEngineOptions reference_shape;
  reference_shape.num_threads = 1;
  reference_shape.block_users = 512;
  const auto reference =
      std::move(PairwiseSimilarityEngine(&matrix, options, reference_shape)
                    .ComputeAll())
          .ValueOrDie();

  for (const size_t threads : {2u, 4u}) {
    for (const int32_t block : {3, 17, 50, 64}) {
      PairwiseEngineOptions shape;
      shape.num_threads = threads;
      shape.block_users = block;
      const auto got =
          std::move(PairwiseSimilarityEngine(&matrix, options, shape).ComputeAll())
              .ValueOrDie();
      ASSERT_EQ(got.size(), reference.size());
      for (size_t k = 0; k < got.size(); ++k) {
        EXPECT_DOUBLE_EQ(got[k], reference[k])
            << "threads=" << threads << " block=" << block << " k=" << k;
      }
    }
  }
}

TEST(PairwiseEngineTest, RejectsWrongSpanSizeAndBadBlock) {
  const RatingMatrix matrix = MakeRandomMatrix(10, 10, 0.3, 3);
  const PairwiseSimilarityEngine engine(&matrix, {});
  std::vector<double> wrong(7, 0.0);
  EXPECT_TRUE(engine.ComputeAll(std::span<double>(wrong))
                  .IsInvalidArgument());

  PairwiseEngineOptions bad_block;
  bad_block.block_users = 0;
  const PairwiseSimilarityEngine bad(&matrix, {}, bad_block);
  std::vector<double> out(PairwiseSimilarityEngine::PackedTriangleSize(10), 0.0);
  EXPECT_TRUE(bad.ComputeAll(std::span<double>(out)).IsInvalidArgument());
}

TEST(PairwiseEngineTest, SimilarityMatrixDelegationMatchesEngine) {
  const RatingMatrix matrix = MakeRandomMatrix(40, 25, 0.2, 11);
  RatingSimilarityOptions options;
  options.shift_to_unit_interval = true;
  const RatingSimilarity base(&matrix, options);

  const auto cached =
      std::move(SimilarityMatrix::Precompute(base, matrix.num_users()))
          .ValueOrDie();
  EXPECT_EQ(cached->name(), "cached-pearson");

  const PairwiseSimilarityEngine engine(&matrix, options);
  const auto packed = std::move(engine.ComputeAll()).ValueOrDie();
  size_t index = 0;
  for (UserId a = 0; a < matrix.num_users(); ++a) {
    for (UserId b = a + 1; b < matrix.num_users(); ++b, ++index) {
      EXPECT_DOUBLE_EQ(cached->Compute(a, b), packed[index]);
    }
  }
  // And the cached matrix still agrees with the direct measure.
  for (UserId a = 0; a < matrix.num_users(); ++a) {
    for (UserId b = a + 1; b < matrix.num_users(); ++b) {
      EXPECT_NEAR(cached->Compute(a, b), base.Compute(a, b), kParityTolerance);
    }
  }
}

TEST(PairwiseEngineTest, PrecomputeOnUserPrefixFallsBackToGenericPath) {
  // When the requested population differs from the matrix's, Precompute must
  // not delegate; the generic path evaluates the base measure per pair.
  const RatingMatrix matrix = MakeRandomMatrix(30, 20, 0.25, 5);
  const RatingSimilarity base(&matrix, {});
  const int32_t prefix = 12;
  const auto cached =
      std::move(SimilarityMatrix::Precompute(base, prefix)).ValueOrDie();
  for (UserId a = 0; a < prefix; ++a) {
    for (UserId b = a + 1; b < prefix; ++b) {
      EXPECT_DOUBLE_EQ(cached->Compute(a, b), base.Compute(a, b));
    }
  }
}

bool SameBits(const PairMoments& x, const PairMoments& y) {
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  return x.n == y.n && bits(x.sum_a) == bits(y.sum_a) &&
         bits(x.sum_b) == bits(y.sum_b) && bits(x.sum_aa) == bits(y.sum_aa) &&
         bits(x.sum_bb) == bits(y.sum_bb) && bits(x.sum_ab) == bits(y.sum_ab);
}

// The row-range restriction: over random row ranges and block sizes that
// align with nothing, the restricted BuildPeerIndex (delta below every
// similarity, no cap) holds exactly the pairs a < b with a in the range,
// in both users' lists, each similarity bitwise equal to the full sweep's.
TEST(PairwiseEngineTest, RowRestrictedSweepHoldsExactlyTheRangePairs) {
  const RatingMatrix matrix = MakeRandomMatrix(57, 30, 0.3, 0x5eed);
  const UserId n = matrix.num_users();
  PeerIndexOptions every_pair;
  every_pair.delta = -2.0;
  for (const int32_t block : {1, 4, 7, 16, 512}) {
    PairwiseEngineOptions engine_options;
    engine_options.block_users = block;
    const PairwiseSimilarityEngine engine(&matrix, {}, engine_options);
    const std::vector<double> full = std::move(engine.ComputeAll()).ValueOrDie();
    Rng rng(0x7ec7u + static_cast<uint64_t>(block));
    for (int trial = 0; trial < 30; ++trial) {
      UserId first = static_cast<UserId>(rng.UniformInt(0, n));
      UserId last = static_cast<UserId>(rng.UniformInt(0, n));
      if (first > last) std::swap(first, last);
      const PeerIndex index =
          std::move(engine.BuildPeerIndex(every_pair, first, last))
              .ValueOrDie();
      for (UserId u = 0; u < n; ++u) {
        std::set<UserId> expected;
        for (UserId v = 0; v < n; ++v) {
          if (v != u && std::min(u, v) >= first && std::min(u, v) < last) {
            expected.insert(v);
          }
        }
        std::set<UserId> got;
        for (const Peer& peer : index.PeersOf(u)) {
          EXPECT_TRUE(got.insert(peer.user).second) << u << ", " << peer.user;
          const double reference =
              full[PairwiseSimilarityEngine::PackedTriangleIndex(
                  std::min(u, peer.user), std::max(u, peer.user), n)];
          EXPECT_EQ(std::bit_cast<uint64_t>(peer.similarity),
                    std::bit_cast<uint64_t>(reference))
              << u << ", " << peer.user;
        }
        EXPECT_EQ(got, expected) << "user " << u << ", rows [" << first
                                 << ", " << last << "), block " << block;
      }
    }
  }
}

TEST(PairwiseEngineTest, RowRestrictedSweepRejectsRangesOutsideThePopulation) {
  const RatingMatrix matrix = MakeRandomMatrix(20, 10, 0.4, 11);
  const PairwiseSimilarityEngine engine(&matrix, {}, {});
  for (const auto& [first, last] :
       {std::pair<UserId, UserId>{0, 21}, {-1, 5}, {6, 5}}) {
    EXPECT_TRUE(
        engine.BuildPeerIndex({}, first, last).status().IsInvalidArgument());
  }
  EXPECT_TRUE(engine.BuildPeerIndex({}, 20, 20).ok());
}

// The row sweep yields every row of the engine's store, in ascending user
// order, with the same partners and bitwise the same moments — on a random
// corpus and on the degenerate one (empty rows, disjoint raters).
TEST(PairwiseEngineTest, RowSweepYieldsTheStoreRows) {
  for (const RatingMatrix& matrix :
       {MakeRandomMatrix(61, 35, 0.25, 0xabcd), MakeDegenerateMatrix()}) {
    const PairwiseSimilarityEngine engine(&matrix, {}, {});
    const MomentStore store =
        std::move(engine.BuildMomentStore()).ValueOrDie();
    UserId next = 0;
    const Status status = engine.SweepRowMoments(
        [&](UserId u, std::span<const MomentEntry> row) {
          EXPECT_EQ(u, next++);
          const auto stored = store.RowOf(u);
          EXPECT_EQ(row.size(), stored.size()) << "user " << u;
          for (size_t k = 0; k < std::min(row.size(), stored.size()); ++k) {
            EXPECT_EQ(row[k].other, stored[k].other) << u << ", " << k;
            EXPECT_TRUE(SameBits(row[k].moments, stored[k].moments))
                << u << ", " << row[k].other;
          }
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(next, matrix.num_users());
  }
}

TEST(PairwiseEngineTest, RowSweepStopsAtTheFirstVisitorError) {
  const RatingMatrix matrix = MakeRandomMatrix(20, 10, 0.4, 11);
  const PairwiseSimilarityEngine engine(&matrix, {}, {});
  UserId visited = 0;
  const Status status =
      engine.SweepRowMoments([&](UserId u, std::span<const MomentEntry>) {
        ++visited;
        return u == 7 ? Status::IOError("disk full") : Status::OK();
      });
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_EQ(visited, 8);
}

}  // namespace
}  // namespace fairrec
