#include "sim/tile_residency.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/blob_io.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "sim/pearson_finish_batch.h"

namespace fairrec {

namespace {

/// Container type tag of a spilled moment tile ("TS" + version), so a spill
/// blob can never be loaded as a checkpoint or journal and vice versa.
constexpr uint32_t kTileSpillTypeTag = 0x53540001u;

}  // namespace

// ---------------------------------------------------------------------------
// TileResidencyManager
// ---------------------------------------------------------------------------

Result<TileResidencyManager> TileResidencyManager::Create(
    MomentStore* store, TileResidencyOptions options) {
  FAIRREC_CHECK(store != nullptr);
  if (options.budget_bytes > 0) {
    if (options.spill_dir.empty()) {
      return Status::InvalidArgument(
          "a residency budget needs a spill_dir to evict tiles into");
    }
    FAIRREC_RETURN_NOT_OK(EnsureDirectory(options.spill_dir));
  }
  return TileResidencyManager(store, std::move(options));
}

TileResidencyManager::TileResidencyManager(MomentStore* store,
                                           TileResidencyOptions options)
    : store_(store), options_(std::move(options)) {
  SyncShape();
  NoteResidentPeak();
}

TileResidencyManager::~TileResidencyManager() {
  for (size_t t = 0; t < tiles_.size(); ++t) {
    if (tiles_[t].spill_valid) RemovePath(SpillPath(t)).ok();
  }
}

Result<TileResidencyManager> MomentStore::WithBudget(size_t budget_bytes,
                                                     std::string spill_dir) {
  return TileResidencyManager::Create(
      this, {budget_bytes, std::move(spill_dir), /*prefetch_tiles=*/1});
}

void TileResidencyManager::SyncShape() {
  if (tiles_.size() < store_->num_tiles()) tiles_.resize(store_->num_tiles());
}

size_t TileResidencyManager::TileOfUser(UserId u) const {
  return static_cast<size_t>(u) /
         static_cast<size_t>(store_->options().tile_users);
}

std::string TileResidencyManager::SpillPath(size_t t) const {
  return options_.spill_dir + "/tile_" + std::to_string(t) + ".spill";
}

void TileResidencyManager::Touch(size_t t) { tiles_[t].last_use = ++clock_; }

void TileResidencyManager::NoteResidentPeak() {
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, store_->ResidentBytes());
}

Status TileResidencyManager::EnsureResident(size_t t) {
  FAIRREC_CHECK(t < tiles_.size());
  Touch(t);
  if (store_->TileResident(t)) return Status::OK();
  TileState& state = tiles_[t];
  if (!state.spill_valid) {
    return Status::FailedPrecondition(
        "tile " + std::to_string(t) +
        " was evicted outside the residency manager; no spill blob to "
        "restore from");
  }
  FAIRREC_ASSIGN_OR_RETURN(std::string blob,
                           ReadBlobFile(SpillPath(t), kTileSpillTypeTag));
  // Make room *before* re-materializing, so the budget holds through the
  // restore, not just after it — resident bytes never overshoot while
  // unpinned victims remain. Blob bytes are wire entries (48 each); 3/2
  // over-approximates the resident inflation (sizeof entry + row slack).
  FAIRREC_RETURN_NOT_OK(
      EnforceBudgetExcept(t, state.blob_bytes + state.blob_bytes / 2));
  const Status restored = store_->RestoreTile(t, blob);
  if (!restored.ok()) {
    // The container CRC passed but the tile payload failed validation:
    // integrity loss, not caller error.
    return Status::DataLoss("spilled tile " + std::to_string(t) +
                            " failed restore: " +
                            std::string(restored.message()));
  }
  ++stats_.restores;
  stats_.restore_bytes_read += blob.size();
  NoteResidentPeak();
  // The blob still matches the rows (restores do not dirty); a future clean
  // eviction reuses it without rewriting.
  return EnforceBudgetExcept(t, 0);
}

Status TileResidencyManager::Pin(size_t t) {
  FAIRREC_RETURN_NOT_OK(EnsureResident(t));
  ++tiles_[t].pins;
  return Status::OK();
}

void TileResidencyManager::Unpin(size_t t) {
  FAIRREC_CHECK(t < tiles_.size());
  FAIRREC_CHECK(tiles_[t].pins > 0);
  --tiles_[t].pins;
}

Status TileResidencyManager::Prefetch(size_t t) {
  if (t >= tiles_.size() || options_.budget_bytes == 0) return Status::OK();
  if (store_->TileResident(t)) {
    Touch(t);  // keep the upcoming tile off the eviction list
    return Status::OK();
  }
  const TileState& state = tiles_[t];
  if (!state.spill_valid) return Status::OK();
  // Blob bytes are wire entries (48 each); resident rows cost
  // sizeof(MomentEntry) plus slack per entry. 3/2 over-approximates the
  // inflation so a prefetch never lands the sweep over budget.
  const size_t resident_estimate = state.blob_bytes + state.blob_bytes / 2;
  if (store_->ResidentBytes() + resident_estimate > options_.budget_bytes) {
    return Status::OK();  // lookahead never displaces anything
  }
  return EnsureResident(t);
}

void TileResidencyManager::NoteTileDirty(size_t t) {
  FAIRREC_CHECK(t < tiles_.size());
  TileState& state = tiles_[t];
  if (!state.spill_valid) return;
  state.spill_valid = false;
  stats_.spilled_blob_bytes -= state.blob_bytes;
  state.blob_bytes = 0;
  // The stale file is left in place; the next spill atomically replaces it.
}

Status TileResidencyManager::SpillTile(size_t t) {
  TileState& state = tiles_[t];
  if (!store_->TileResident(t)) return Status::OK();
  if (!state.spill_valid) {
#if FAIRREC_FAILPOINTS_ENABLED
    // The mid-spill crash window: the tile is serialized (or about to be)
    // but its blob has not landed. A real kill here must leave recovery
    // working from the previous durable state — the killpoint suite walks
    // this site like the blob-write ones.
    if (failpoint::Triggered(kFailpointResidencySpill)) {
      return failpoint::InjectedCrash(kFailpointResidencySpill);
    }
#endif
    const std::string blob = store_->SerializeTile(t);
    FAIRREC_RETURN_NOT_OK(
        WriteBlobFileAtomic(SpillPath(t), kTileSpillTypeTag, blob));
    state.spill_valid = true;
    state.blob_bytes = blob.size();
    ++stats_.spill_writes;
    stats_.spill_bytes_written += blob.size();
    stats_.spilled_blob_bytes += blob.size();
  }
  store_->EvictTile(t);
  ++stats_.evictions;
  return Status::OK();
}

Status TileResidencyManager::EnforceBudget(size_t headroom_bytes) {
  return EnforceBudgetExcept(std::numeric_limits<size_t>::max(),
                             headroom_bytes);
}

Status TileResidencyManager::EnforceBudgetExcept(size_t keep,
                                                 size_t headroom_bytes) {
  if (options_.budget_bytes == 0) return Status::OK();
  NoteResidentPeak();
  while (store_->ResidentBytes() + headroom_bytes > options_.budget_bytes) {
    size_t victim = tiles_.size();
    uint64_t oldest = std::numeric_limits<uint64_t>::max();
    for (size_t t = 0; t < tiles_.size(); ++t) {
      if (t == keep || tiles_[t].pins > 0) continue;
      if (!store_->TileResident(t) || store_->TileBytes(t) == 0) continue;
      if (tiles_[t].last_use < oldest) {
        oldest = tiles_[t].last_use;
        victim = t;
      }
    }
    if (victim == tiles_.size()) break;  // only pinned/empty left: best-effort
    FAIRREC_RETURN_NOT_OK(SpillTile(victim));
  }
  return Status::OK();
}

Status TileResidencyManager::RestoreAll() {
  for (size_t t = 0; t < tiles_.size(); ++t) {
    if (store_->TileResident(t)) continue;
    Touch(t);
    TileState& state = tiles_[t];
    if (!state.spill_valid) {
      return Status::FailedPrecondition(
          "tile " + std::to_string(t) +
          " was evicted outside the residency manager");
    }
    FAIRREC_ASSIGN_OR_RETURN(std::string blob,
                             ReadBlobFile(SpillPath(t), kTileSpillTypeTag));
    const Status restored = store_->RestoreTile(t, blob);
    if (!restored.ok()) {
      return Status::DataLoss("spilled tile " + std::to_string(t) +
                              " failed restore: " +
                              std::string(restored.message()));
    }
    ++stats_.restores;
    stats_.restore_bytes_read += blob.size();
  }
  NoteResidentPeak();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Out-of-core build
// ---------------------------------------------------------------------------

Result<OutOfCoreStore> BuildMomentStoreOutOfCore(
    const RatingMatrix& matrix, const OutOfCoreBuildOptions& options,
    OutOfCoreBuildStats* stats) {
  if (options.store.tile_users <= 0) {
    return Status::InvalidArgument("store.tile_users must be positive");
  }
  if (options.budget_bytes > 0 && options.spill_dir.empty()) {
    return Status::InvalidArgument(
        "a budgeted out-of-core build needs a spill_dir for its tiles");
  }

  OutOfCoreStore out;
  out.store = std::make_unique<MomentStore>(options.store);
  out.store->EnsureNumUsers(matrix.num_users());
  if (options.budget_bytes > 0) {
    FAIRREC_ASSIGN_OR_RETURN(
        TileResidencyManager manager,
        out.store->WithBudget(options.budget_bytes, options.spill_dir));
    out.residency = std::make_unique<TileResidencyManager>(std::move(manager));
  }

  if (stats != nullptr) *stats = {};
  // The engine's row sweep writes the store row by row, tile after tile.
  // It accumulates row u over I(u) and every U(i): work follows the
  // co-ratings, never the U^2 pair count, and the rows are bitwise the
  // engine's store rows. The similarity options are irrelevant: this sweep
  // never finishes a pair.
  const PairwiseSimilarityEngine engine(&matrix);
  MomentStore& store = *out.store;
  TileResidencyManager* residency = out.residency.get();
  const auto num_users = static_cast<size_t>(matrix.num_users());
  const auto tile_users = static_cast<size_t>(options.store.tile_users);
  FAIRREC_RETURN_NOT_OK(engine.SweepRowMoments(
      [&](UserId u, std::span<const MomentEntry> row) -> Status {
        const size_t t = static_cast<size_t>(u) / tile_users;
        const auto [g0, g1] = store.TileUserRange(t);
        if (u == g0 && residency != nullptr) {
          // Room for the whole tile before its first row: a row holds at
          // most its co-ratings and at most U - 1 partners. The tile then
          // stays pinned while it fills.
          size_t tile_bound = 0;
          for (UserId v = g0; v < g1; ++v) {
            size_t co_ratings = 0;
            for (const ItemRating& rating : matrix.ItemsRatedBy(v)) {
              co_ratings += matrix.UsersWhoRated(rating.item).size() - 1;
            }
            tile_bound +=
                MomentStore::RowBytesFor(std::min(co_ratings, num_users - 1));
          }
          FAIRREC_RETURN_NOT_OK(residency->Pin(t));
          FAIRREC_RETURN_NOT_OK(residency->EnforceBudget(tile_bound));
        }
        store.AssignRow(u, row);
        if (u + 1 < g1) return Status::OK();
        store.FinalizeAssembledTile(t);
        if (residency == nullptr) return Status::OK();
        residency->Unpin(t);
        return residency->EnforceBudget(0);
      }));
  return out;
}

Result<PeerIndex> BuildPeerIndexFromStore(
    const RatingMatrix& matrix, const MomentStore& store,
    TileResidencyManager* residency,
    const RatingSimilarityOptions& sim_options,
    const PeerIndexOptions& peer_options, PairwiseEngineStats* stats) {
  if (store.num_users() != matrix.num_users()) {
    return Status::InvalidArgument(
        "store/matrix population mismatch: store " +
        std::to_string(store.num_users()) + " users, matrix " +
        std::to_string(matrix.num_users()));
  }
  // The engine validates the similarity options and supplies the exact
  // finish semantics (SkipsFinish guard + the batched kernel) the full
  // sweep uses, so the finished index is byte-identical to its output.
  const PairwiseSimilarityEngine engine(&matrix, sim_options);
  const TileResidencyStats residency_before =
      residency != nullptr ? residency->stats() : TileResidencyStats{};

  Stopwatch finish_watch;
  PeerIndex::Builder builder(store.num_users(), peer_options);
  int64_t pairs_finished = 0;
  const double threshold = peer_options.delta;
  struct RowPeer {
    UserId row;
    UserId other;
  };
  for (size_t t = 0; t < store.num_tiles(); ++t) {
    if (residency != nullptr) {
      FAIRREC_RETURN_NOT_OK(residency->Pin(t));
      for (size_t ahead = 1; ahead <= residency->options().prefetch_tiles;
           ++ahead) {
        FAIRREC_RETURN_NOT_OK(residency->Prefetch(t + ahead));
      }
    }
    {
      auto stream = MakePearsonFinishStream<RowPeer>(
          engine.options(), [&builder, threshold](RowPeer rp, double sim) {
            if (sim >= threshold) builder.Offer(rp.row, rp.other, sim);
          });
      const auto [first_user, last_user] = store.TileUserRange(t);
      for (UserId u = first_user; u < last_user; ++u) {
        for (const MomentEntry& entry : store.RowOf(u)) {
          if (u < entry.other) ++pairs_finished;
          if (engine.SkipsFinish(entry.moments)) continue;
          // Stored moments are canonically oriented: stage with the
          // matching (min, max) global means, the full sweep's exact call.
          const UserId a = std::min(u, entry.other);
          const UserId b = std::max(u, entry.other);
          stream.Stage(entry.moments, matrix.UserMean(a), matrix.UserMean(b),
                       {u, entry.other});
        }
      }
    }  // stream destruction flushes the tail
    if (residency != nullptr) {
      residency->Unpin(t);
      FAIRREC_RETURN_NOT_OK(residency->EnforceBudget(0));
    }
  }
  if (stats != nullptr) {
    stats->finish_seconds += finish_watch.ElapsedSeconds();
    stats->pairs_finished += pairs_finished;
    if (residency != nullptr) {
      const TileResidencyStats& after = residency->stats();
      stats->tile_restores += after.restores - residency_before.restores;
      stats->tile_spills += after.evictions - residency_before.evictions;
      stats->spill_bytes_written +=
          after.spill_bytes_written - residency_before.spill_bytes_written;
      stats->peak_resident_bytes =
          std::max(stats->peak_resident_bytes, after.peak_resident_bytes);
    }
  }
  return std::move(builder).Build();
}

}  // namespace fairrec
