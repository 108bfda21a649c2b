// TileResidencyManager + out-of-core build suite. The load-bearing claims:
//
//   * the out-of-core build (the engine's row sweep, filling one store tile
//     at a time) is bit-identical to PairwiseSimilarityEngine::BuildMomentStore at every
//     tile size and byte budget, including unbounded;
//   * BuildPeerIndexFromStore is byte-identical to the engine's
//     BuildPeerIndex, budgeted or not;
//   * randomized evict/restore/pin/dirty sequences through the manager never
//     change the store's contents, and the recorded resident peak respects
//     the budget;
//   * the budgeted IncrementalPeerGraph stays bit-identical to the
//     unbudgeted one across a delta stream (integer ratings — the exact
//     regime).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/blob_io.h"
#include "common/random.h"
#include "ratings/rating_delta.h"
#include "ratings/rating_matrix.h"
#include "sim/incremental_peer_graph.h"
#include "sim/moment_store.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_index.h"
#include "sim/tile_residency.h"

namespace fairrec {
namespace {

RatingMatrix CorpusMatrix(uint64_t seed, int32_t users, int32_t items,
                          double density) {
  RatingMatrixBuilder builder;
  Rng rng(seed);
  for (UserId u = 0; u < users; ++u) {
    for (ItemId i = 0; i < items; ++i) {
      if (rng.NextBool(density)) {
        EXPECT_TRUE(
            builder.Add(u, i, static_cast<Rating>(rng.UniformInt(1, 5))).ok());
      }
    }
  }
  return std::move(builder.Build()).ValueOrDie();
}

std::string FreshSpillDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/fairrec_residency_" + name;
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  return dir;
}

MomentStoreOptions SmallTiles() {
  MomentStoreOptions options;
  options.tile_users = 8;
  return options;
}

TEST(OutOfCoreBuildTest, UnboundedBuildMatchesEngineStore) {
  const RatingMatrix matrix = CorpusMatrix(0xabc1, 60, 40, 0.35);
  const PairwiseSimilarityEngine engine(&matrix, {}, {});
  const MomentStore reference =
      std::move(engine.BuildMomentStore(SmallTiles())).ValueOrDie();

  OutOfCoreBuildOptions options;
  options.store = SmallTiles();
  OutOfCoreBuildStats stats;
  auto built = BuildMomentStoreOutOfCore(matrix, options, &stats);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->residency, nullptr);
  // Unbounded: every tile stays resident and nothing reaches the disk.
  for (size_t t = 0; t < built->store->num_tiles(); ++t) {
    EXPECT_TRUE(built->store->TileResident(t)) << t;
  }
  EXPECT_EQ(stats.shuffle.spilled_bytes, 0u);
  EXPECT_GT(built->store->num_pairs(), 0);
  EXPECT_TRUE(*built->store == reference);
  // Rows get the Builder's capacity policy, so the budget sees the same
  // bytes as the in-memory store.
  EXPECT_EQ(built->store->ResidentBytes(), reference.ResidentBytes());
}

std::string Serialized(const PeerIndex& index) {
  std::string bytes;
  index.SerializeTo(bytes);
  return bytes;
}

// Store tiles need not align with the engine's block: every tile size,
// including ones that divide neither the population nor each other, at
// every budget, must give the engine's store and, through the store, the
// engine's peer index byte for byte.
TEST(OutOfCoreBuildTest, EveryBudgetYieldsTheIdenticalStore) {
  const RatingMatrix matrix = CorpusMatrix(0xabc2, 64, 48, 0.4);
  RatingSimilarityOptions sim_options;
  sim_options.shift_to_unit_interval = true;
  PeerIndexOptions peer_options;
  peer_options.delta = 0.5;
  peer_options.max_peers_per_user = 7;
  PairwiseEngineOptions engine_options;
  engine_options.block_users = 16;  // the in-memory sweep's own tiling
  const PairwiseSimilarityEngine engine(&matrix, sim_options, engine_options);
  const std::string reference_index =
      Serialized(std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie());

  for (const int32_t tile_users : {3, 7, 8, 13}) {
    MomentStoreOptions store_options;
    store_options.tile_users = tile_users;
    const MomentStore reference =
        std::move(engine.BuildMomentStore(store_options)).ValueOrDie();
    const size_t full_bytes = reference.ResidentBytes();
    ASSERT_GT(full_bytes, 0u);
    for (const size_t budget :
         {size_t{0}, full_bytes / 3, full_bytes / 2, full_bytes * 2}) {
      const std::string label = "tile_users " + std::to_string(tile_users) +
                                " budget " + std::to_string(budget);
      OutOfCoreBuildOptions options;
      options.store = store_options;
      options.budget_bytes = budget;
      options.spill_dir = FreshSpillDir("matrix_" + std::to_string(tile_users) +
                                        "_" + std::to_string(budget));
      auto built = BuildMomentStoreOutOfCore(matrix, options);
      ASSERT_TRUE(built.ok()) << label << ": " << built.status().ToString();
      ASSERT_EQ(built->residency != nullptr, budget > 0) << label;

      auto index = BuildPeerIndexFromStore(matrix, *built->store,
                                           built->residency.get(), sim_options,
                                           peer_options);
      ASSERT_TRUE(index.ok()) << label << ": " << index.status().ToString();
      EXPECT_EQ(Serialized(*index), reference_index) << label;

      if (built->residency != nullptr) {
        // The recorded resident peak respects the budget (the bench gate's
        // exact property), and tiles actually page out when they must.
        const TileResidencyStats& residency = built->residency->stats();
        EXPECT_LE(residency.peak_resident_bytes, budget) << label;
        if (budget < full_bytes) {
          EXPECT_GT(residency.evictions, 0) << label;
          EXPECT_GT(residency.spill_bytes_written, 0u) << label;
        }
        ASSERT_TRUE(built->residency->RestoreAll().ok()) << label;
      }
      EXPECT_TRUE(*built->store == reference) << label;
    }
  }
}

TEST(OutOfCoreBuildTest, PeerIndexFromStoreMatchesEngineAtEveryBudget) {
  const RatingMatrix matrix = CorpusMatrix(0xabc3, 72, 50, 0.35);
  RatingSimilarityOptions sim_options;
  sim_options.shift_to_unit_interval = true;
  PeerIndexOptions peer_options;
  peer_options.delta = 0.52;
  peer_options.max_peers_per_user = 9;
  const PairwiseSimilarityEngine engine(&matrix, sim_options);
  const PeerIndex reference =
      std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();
  const MomentStore full_store =
      std::move(engine.BuildMomentStore(SmallTiles())).ValueOrDie();
  const size_t full_bytes = full_store.ResidentBytes();

  // Unbudgeted store, no residency manager.
  {
    PairwiseEngineStats stats;
    auto index = BuildPeerIndexFromStore(matrix, full_store, nullptr,
                                         sim_options, peer_options, &stats);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_TRUE(*index == reference);
    EXPECT_EQ(stats.tile_restores, 0);
    EXPECT_GT(stats.pairs_finished, 0);
  }

  int probed = 0;
  for (const size_t budget : {full_bytes / 3, full_bytes / 2}) {
    const std::string dir = FreshSpillDir("peer_" + std::to_string(probed++));
    OutOfCoreBuildOptions options;
    options.store = SmallTiles();
    options.budget_bytes = budget;
    options.spill_dir = dir;
    auto built = BuildMomentStoreOutOfCore(matrix, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    PairwiseEngineStats stats;
    auto index =
        BuildPeerIndexFromStore(matrix, *built->store, built->residency.get(),
                                sim_options, peer_options, &stats);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_TRUE(*index == reference) << "budget " << budget;
    // The sweep faulted evicted tiles back in and stayed under budget.
    EXPECT_GT(stats.tile_restores, 0) << budget;
    EXPECT_LE(stats.peak_resident_bytes, budget) << budget;
  }
}

TEST(TileResidencyManagerTest, BudgetRequiresASpillDir) {
  const RatingMatrix matrix = CorpusMatrix(0xabc4, 20, 16, 0.4);
  const PairwiseSimilarityEngine engine(&matrix, {}, {});
  MomentStore store =
      std::move(engine.BuildMomentStore(SmallTiles())).ValueOrDie();
  EXPECT_TRUE(store.WithBudget(1 << 20, "").status().IsInvalidArgument());
}

TEST(TileResidencyManagerTest, RandomizedEvictRestorePinSequencesPreserveTheStore) {
  const RatingMatrix matrix = CorpusMatrix(0xabc5, 56, 44, 0.4);
  const PairwiseSimilarityEngine engine(&matrix, {}, {});
  const MomentStore reference =
      std::move(engine.BuildMomentStore(SmallTiles())).ValueOrDie();
  MomentStore store =
      std::move(engine.BuildMomentStore(SmallTiles())).ValueOrDie();
  const size_t budget = reference.ResidentBytes() / 2;
  const std::string dir = FreshSpillDir("random_ops");
  auto manager = store.WithBudget(budget, dir);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  ASSERT_TRUE(manager->EnforceBudget().ok());

  const size_t tiles = store.num_tiles();
  ASSERT_GT(tiles, 2u);
  std::vector<int> held_pins(tiles, 0);
  Rng rng(0x9e37);
  for (int step = 0; step < 600; ++step) {
    const auto t =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(tiles) - 1));
    switch (rng.UniformInt(0, 5)) {
      case 0:
        ASSERT_TRUE(manager->EnsureResident(t).ok()) << step;
        break;
      case 1:
        ASSERT_TRUE(manager->Pin(t).ok()) << step;
        ++held_pins[t];
        break;
      case 2:
        if (held_pins[t] > 0) {
          manager->Unpin(t);
          --held_pins[t];
        }
        break;
      case 3:
        ASSERT_TRUE(manager->Prefetch(t).ok()) << step;
        break;
      case 4:
        // Dirty only resident tiles: dirtying an evicted tile would declare
        // its only copy stale, which is the caller contract violation the
        // FailedPrecondition path guards.
        if (store.TileResident(t)) manager->NoteTileDirty(t);
        break;
      default:
        ASSERT_TRUE(manager->EnforceBudget().ok()) << step;
        break;
    }
  }
  for (size_t t = 0; t < tiles; ++t) {
    while (held_pins[t] > 0) {
      manager->Unpin(t);
      --held_pins[t];
    }
  }
  ASSERT_TRUE(manager->EnforceBudget().ok());
  EXPECT_GT(manager->stats().evictions, 0);
  EXPECT_GT(manager->stats().restores, 0);

  ASSERT_TRUE(manager->RestoreAll().ok());
  EXPECT_TRUE(store == reference);
}

TEST(TileResidencyManagerTest, EvictionOutsideTheManagerIsFailedPrecondition) {
  const RatingMatrix matrix = CorpusMatrix(0xabc6, 24, 20, 0.4);
  const PairwiseSimilarityEngine engine(&matrix, {}, {});
  MomentStore store =
      std::move(engine.BuildMomentStore(SmallTiles())).ValueOrDie();
  const std::string dir = FreshSpillDir("outside_evict");
  auto manager = store.WithBudget(store.ResidentBytes() * 2, dir);
  ASSERT_TRUE(manager.ok());
  store.EvictTile(0);  // behind the manager's back: no blob exists
  EXPECT_TRUE(manager->EnsureResident(0).IsFailedPrecondition());
}

TEST(IncrementalPeerGraphBudgetTest, BudgetedGraphTracksUnbudgetedBitForBit) {
  IncrementalPeerGraphOptions base;
  base.peers.delta = 0.1;
  base.peers.max_peers_per_user = 8;
  base.store.tile_users = 4;

  IncrementalPeerGraphOptions budgeted = base;
  budgeted.store_budget_bytes = 6 * 1024;
  budgeted.store_spill_dir = FreshSpillDir("graph_budget");

  // Budget without a spill dir must be rejected up front.
  {
    IncrementalPeerGraphOptions bad = base;
    bad.store_budget_bytes = 1024;
    auto built =
        IncrementalPeerGraph::Build(CorpusMatrix(0xabc7, 20, 12, 0.5), bad);
    EXPECT_TRUE(built.status().IsInvalidArgument());
  }

  auto plain =
      IncrementalPeerGraph::Build(CorpusMatrix(0xabc7, 20, 12, 0.5), base);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto tight =
      IncrementalPeerGraph::Build(CorpusMatrix(0xabc7, 20, 12, 0.5), budgeted);
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  ASSERT_NE(tight->residency(), nullptr);

  Rng rng(0x77aa);
  int64_t spill_traffic = 0;
  for (int batch = 0; batch < 12; ++batch) {
    RatingDelta delta;
    const int64_t cells = rng.UniformInt(1, 5);
    for (int64_t c = 0; c < cells; ++c) {
      ASSERT_TRUE(delta
                      .Add(static_cast<UserId>(rng.UniformInt(0, 23)),
                           static_cast<ItemId>(rng.UniformInt(0, 15)),
                           static_cast<Rating>(rng.UniformInt(1, 5)))
                      .ok());
    }
    auto plain_stats = plain->ApplyDelta(delta);
    ASSERT_TRUE(plain_stats.ok()) << plain_stats.status().ToString();
    auto tight_stats = tight->ApplyDelta(delta);
    ASSERT_TRUE(tight_stats.ok()) << tight_stats.status().ToString();
    // The served artifact is identical after every batch, while the
    // budgeted side actually pages.
    EXPECT_TRUE(*plain->index() == *tight->index()) << batch;
    EXPECT_GT(tight_stats->resident_bytes, 0u) << batch;
    spill_traffic += tight_stats->tile_restores + tight_stats->tile_spills;
  }
  EXPECT_GT(spill_traffic, 0);

  ASSERT_TRUE(tight->EnsureStoreResident().ok());
  EXPECT_TRUE(plain->store() == tight->store());
  EXPECT_TRUE(plain->matrix() == tight->matrix());
}

}  // namespace
}  // namespace fairrec
