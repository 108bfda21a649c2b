#ifndef FAIRREC_SIM_TILE_RESIDENCY_H_
#define FAIRREC_SIM_TILE_RESIDENCY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ratings/rating_matrix.h"
#include "sim/moment_shuffle.h"
#include "sim/moment_store.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_index.h"
#include "sim/rating_similarity.h"

namespace fairrec {

/// Failpoint site inside TileResidencyManager's spill write, hit after the
/// tile is serialized but before its blob reaches disk — the instant where a
/// crash leaves a tile resident in a process that is about to die, so
/// recovery must never depend on the spill having landed. The atomic blob
/// write behind it additionally exposes the kFailpointBlobWrite* sites.
inline constexpr std::string_view kFailpointResidencySpill =
    "residency.spill.begin";

/// Controls for TileResidencyManager.
struct TileResidencyOptions {
  /// Target on the store's resident bytes. 0 = unbounded: nothing ever
  /// spills and every call is a cheap no-op, so a budget-aware caller can
  /// run the same code path either way.
  size_t budget_bytes = 0;
  /// Directory for spilled tile blobs (created if missing). Required when
  /// budget_bytes > 0.
  std::string spill_dir;
  /// Sweep-order lookahead of Prefetch: how many tiles past the one under
  /// maintenance a sweep warms up, when the budget has room.
  size_t prefetch_tiles = 1;
};

/// Accounting of one manager's lifetime. Deltas of these counters are what
/// PairwiseEngineStats / DeltaApplyStats surface per operation.
struct TileResidencyStats {
  /// Tiles re-materialized from their spill blob.
  int64_t restores = 0;
  /// Spill blobs written (clean evictions of an unchanged tile reuse the
  /// existing blob and skip the write).
  int64_t spill_writes = 0;
  /// Tiles evicted (with or without a fresh blob write).
  int64_t evictions = 0;
  uint64_t spill_bytes_written = 0;
  uint64_t restore_bytes_read = 0;
  /// High-water of the store's resident bytes while under management — the
  /// figure bench_outofcore gates against the budget.
  size_t peak_resident_bytes = 0;
  /// Bytes currently held in valid spill blobs on disk.
  size_t spilled_blob_bytes = 0;
};

/// Explicit-byte-budget residency manager over a MomentStore's user-range
/// tiles.
///
/// The store itself only mechanizes tile movement (SerializeTile / EvictTile
/// / RestoreTile); this class owns the policy: which tiles stay resident
/// under a byte budget, when a tile's spill blob can be reused versus
/// rewritten, and which tile to sacrifice when the budget is exceeded (least
/// recently used, never pinned, never empty). Spill blobs go through the
/// checksummed atomic container of common/blob_io, so a torn spill is
/// invisible (the old blob or none survives, never a mix) and a bit-flipped
/// one fails restore as DataLoss instead of resurrecting wrong moments.
///
/// Pinning: callers doing multi-step maintenance (the incremental patch
/// path, the out-of-core build's tile fill) pin the tiles they are about to
/// read or write; EnforceBudget never evicts a pinned tile, so the budget
/// is best-effort while pins are held and re-established when they drop.
///
/// Construct via MomentStore::WithBudget. The store must outlive the
/// manager and must not move while it exists. Not thread-safe: residency
/// transitions are exclusive, like store writes (concurrent *reads* of
/// resident tiles are fine — the manager only moves tiles inside its
/// mutating calls).
class TileResidencyManager {
 public:
  static Result<TileResidencyManager> Create(MomentStore* store,
                                             TileResidencyOptions options);

  TileResidencyManager(TileResidencyManager&&) noexcept = default;
  TileResidencyManager& operator=(TileResidencyManager&&) noexcept = default;
  /// Removes this manager's spill blobs (best-effort; they are caches of
  /// resident state plus restorable spill state, never the only copy of
  /// anything durable).
  ~TileResidencyManager();

  size_t TileOfUser(UserId u) const;

  /// Faults tile `t` in from its spill blob if evicted, touches its LRU
  /// clock, and re-enforces the budget against the *other* tiles. DataLoss
  /// on a corrupt blob; FailedPrecondition for a tile evicted outside the
  /// manager (no blob to restore from).
  Status EnsureResident(size_t t);

  /// EnsureResident + pin: the tile cannot be evicted until Unpin. Pins
  /// nest.
  Status Pin(size_t t);
  void Unpin(size_t t);

  /// Sweep-order warm-up: restores tile `t` only when it fits the budget
  /// without evicting anything — the lookahead of a tile sweep, never a
  /// displacement. No-op past the last tile or when unbounded.
  Status Prefetch(size_t t);

  /// Marks tile `t`'s spill blob stale after its rows changed (a fold). The
  /// next eviction re-serializes; restoring the stale blob is no longer
  /// possible, so forgetting this call would resurrect pre-fold moments —
  /// hence the store's mutation paths in this repo call it through their
  /// residency hooks, not ad hoc.
  void NoteTileDirty(size_t t);

  /// Evicts least-recently-used unpinned tiles until resident bytes +
  /// `headroom_bytes` fit the budget (or only pinned/empty tiles remain —
  /// best-effort under pins). No-op when unbounded.
  Status EnforceBudget(size_t headroom_bytes = 0);

  /// Restores every spilled tile, ignoring the budget — the precondition of
  /// whole-store operations (checkpoint serialization, operator==).
  Status RestoreAll();

  /// Grows the per-tile state after the store's population grew
  /// (EnsureNumUsers). New tiles start resident with no blob.
  void SyncShape();

  MomentStore& store() { return *store_; }
  const MomentStore& store() const { return *store_; }
  const TileResidencyOptions& options() const { return options_; }
  const TileResidencyStats& stats() const { return stats_; }

 private:
  struct TileState {
    /// True when the on-disk blob reflects the tile's current rows.
    bool spill_valid = false;
    int32_t pins = 0;
    /// LRU clock of the last touch.
    uint64_t last_use = 0;
    /// Size of the valid spill blob (0 when none).
    size_t blob_bytes = 0;
  };

  TileResidencyManager(MomentStore* store, TileResidencyOptions options);

  std::string SpillPath(size_t t) const;
  void Touch(size_t t);
  void NoteResidentPeak();
  /// Writes tile `t`'s blob if stale, then evicts it.
  Status SpillTile(size_t t);
  /// EnforceBudget that additionally never evicts tile `keep` (the tile the
  /// caller is in the middle of touching).
  Status EnforceBudgetExcept(size_t keep, size_t headroom_bytes);

  MomentStore* store_ = nullptr;
  TileResidencyOptions options_;
  std::vector<TileState> tiles_;
  uint64_t clock_ = 0;
  TileResidencyStats stats_;
};

// ---------------------------------------------------------------------------
// Out-of-core build: corpus -> budgeted MomentStore -> PeerIndex.
// ---------------------------------------------------------------------------

/// Knobs of BuildMomentStoreOutOfCore.
struct OutOfCoreBuildOptions {
  /// Tile granularity of the assembled store: the unit that is pinned
  /// while it fills, then spilled and restored.
  MomentStoreOptions store;
  /// Residency budget over the assembled tiles (0 = unbounded — the build
  /// then fills every tile in memory and spills nothing).
  size_t budget_bytes = 0;
  /// Directory for spilled tile blobs. Required when budget_bytes is set.
  std::string spill_dir;
};

/// Accounting of one out-of-core build.
struct OutOfCoreBuildStats {
  /// Always zero: the build routes no co-rating through a
  /// PairMomentShuffle. Kept so callers reading `shuffle.spilled_bytes`
  /// into a spill total still compile and still add the right figure; the
  /// tile blobs are counted in the residency manager's stats.
  MomentShuffleStats shuffle;
};

/// The assembled store plus its residency manager (null when unbounded).
/// unique_ptr because the manager pins the store's address.
struct OutOfCoreStore {
  std::unique_ptr<MomentStore> store;
  std::unique_ptr<TileResidencyManager> residency;
};

/// Builds the MomentStore of `matrix` one tile at a time under a byte
/// budget, from one single-threaded pass of the engine's row sweep
/// (PairwiseSimilarityEngine::SweepRowMoments): each store tile is pinned
/// with room for its rows' co-rating bound, filled row by row, then
/// unpinned, and older tiles spill to disk as the budget demands. Every
/// pair is accumulated twice, once per row; work follows the co-ratings,
/// never U^2; spill traffic is tile blobs only. The assembled store is
/// bit-identical to PairwiseSimilarityEngine::BuildMomentStore on the same
/// matrix at any budget: every pair's moments are Adds over its co-rated
/// items in ascending item order on both paths.
Result<OutOfCoreStore> BuildMomentStoreOutOfCore(
    const RatingMatrix& matrix, const OutOfCoreBuildOptions& options,
    OutOfCoreBuildStats* stats = nullptr);

/// Finishes the Def. 1 peer graph from an already-built MomentStore: a
/// sweep over the store's tiles (faulting each in through `residency` when
/// budgeted, with sweep-order prefetch) that stages every stored pair's
/// moments through the batched Pearson kernel and offers qualifying peers
/// to PeerIndex::Builder. Byte-identical to
/// PairwiseSimilarityEngine::BuildPeerIndex on the matrix the store was
/// built from: identical moments, identical finish kernel, identical
/// BetterPeer selection. `residency` may be null (fully resident store).
/// `stats`, when non-null, receives the finish timing plus the sweep's
/// residency traffic.
Result<PeerIndex> BuildPeerIndexFromStore(
    const RatingMatrix& matrix, const MomentStore& store,
    TileResidencyManager* residency,
    const RatingSimilarityOptions& sim_options,
    const PeerIndexOptions& peer_options,
    PairwiseEngineStats* stats = nullptr);

}  // namespace fairrec

#endif  // FAIRREC_SIM_TILE_RESIDENCY_H_
