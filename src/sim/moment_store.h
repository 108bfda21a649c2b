#ifndef FAIRREC_SIM_MOMENT_STORE_H_
#define FAIRREC_SIM_MOMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "ratings/types.h"
#include "sim/pearson_finish.h"

namespace fairrec {

class TileResidencyManager;

/// One neighbour of a user in the moment store: the other user of the pair
/// and the pair's six sufficient statistics. `moments` is always stored in
/// the canonical (min id = a, max id = b) orientation — the orientation the
/// engine's tile sweep accumulates — so finishing through
/// FinishPearsonFromMoments(moments, mean(min), mean(max), ...) reproduces
/// the engine's similarity bit-for-bit on identical moments.
struct MomentEntry {
  UserId other = kInvalidUserId;
  PairMoments moments;

  friend bool operator==(const MomentEntry&, const MomentEntry&) = default;
};

/// One canonical pair delta for MomentStore::ApplyPairDeltas: the additive
/// change of pair (a, b)'s sufficient statistics (a < b required). Negative
/// sums / negative n express removal of superseded co-ratings (an updated
/// rating folds in as "subtract the old co-rating, add the new one").
struct PairMomentsDelta {
  UserId a = kInvalidUserId;
  UserId b = kInvalidUserId;
  PairMoments delta;
};

/// Build-time knobs for MomentStore.
struct MomentStoreOptions {
  /// Rows per tile — the spill/accounting granularity. Each tile owns the
  /// rows of one contiguous user-id range and is independently serializable,
  /// evictable, and restorable, so a corpus whose pair moments exceed RAM
  /// can keep only the tiles under maintenance resident.
  int32_t tile_users = 2048;
};

/// Persistent sparse per-pair sufficient-statistics store: for every
/// co-rated user pair, the six additive Pearson moments of
/// sim/pearson_finish.h, held across rating arrivals so a delta batch can be
/// folded in without re-sweeping the corpus.
///
/// Storage is a bidirectional adjacency: pair (a, b) appears in row a (entry
/// `other == b`) and in row b (entry `other == a`), both carrying the same
/// canonically-oriented moments. The 2x constant buys O(degree) access to
/// *all* of one user's pairs — exactly what the incremental peer-graph patch
/// needs to re-finish an affected user's peer list without scanning the
/// store (see sim/incremental_peer_graph.h). Total memory stays
/// O(co-rated pairs); pairs whose overlap count returns to zero are erased.
///
/// Rows are grouped into user-range tiles (MomentStoreOptions::tile_users).
/// A tile is the spill unit: SerializeTile/EvictTile/RestoreTile move one
/// tile between resident rows and a compact byte blob, and byte accounting
/// is tracked per tile, so callers can bound residency for corpora whose
/// moment set exceeds memory.
///
/// Writers: either the thread-safe Builder (one full engine sweep or the
/// MapReduce Job 1 moment stream — see
/// PairwiseSimilarityEngine::BuildMomentStore and
/// BuildMomentStoreFromPartialMoments), or ApplyPairDeltas for incremental
/// folds. Readers may call RowOf/FindPair concurrently with each other but
/// not with writers.
class MomentStore {
 public:
  /// Thread-safe accumulation of canonical pair moments. Add may be called
  /// concurrently; rows are striped-locked and sorted by Build().
  class Builder {
   public:
    Builder(int32_t num_users, MomentStoreOptions options = {});

    /// Records the moments of pair (a, b); a < b and the canonical
    /// orientation are required. Each pair must be added exactly once —
    /// callers holding per-shard partials merge them (in a deterministic
    /// order) before Add, so stored moments never depend on builder thread
    /// interleaving. Pairs with n == 0 are ignored.
    void Add(UserId a, UserId b, const PairMoments& moments);

    /// Sorts rows, merges per-pair partials, and returns the finished
    /// store. The builder is left empty.
    MomentStore Build() &&;

   private:
    int32_t num_users_ = 0;
    MomentStoreOptions options_;
    std::vector<std::vector<MomentEntry>> rows_;
    std::vector<std::mutex> stripes_;
  };

  /// An empty store (no users). Replace via Builder or EnsureNumUsers.
  MomentStore() = default;

  /// An empty store with the given tile granularity; grow via
  /// EnsureNumUsers. The tile-assembly entry point: the out-of-core build
  /// fills one tile at a time with AssignRow instead of holding a whole
  /// Builder's worth of rows.
  explicit MomentStore(MomentStoreOptions options) : options_(options) {}

  int32_t num_users() const { return num_users_; }
  const MomentStoreOptions& options() const { return options_; }

  /// Number of stored pairs (each counted once, not per direction).
  int64_t num_pairs() const { return num_pairs_; }

  /// All pairs of user `u`, sorted by ascending `other` id. Precondition:
  /// the row's tile is resident. Out-of-range ids yield an empty span.
  std::span<const MomentEntry> RowOf(UserId u) const;

  /// The canonical moments of pair (a, b), or nullptr when the pair has no
  /// co-ratings. Order of a/b does not matter. O(log degree).
  const PairMoments* FindPair(UserId a, UserId b) const;

  /// Grows the population to at least `num_users` (new rows empty). Existing
  /// rows and tiles are untouched; new tiles start resident.
  void EnsureNumUsers(int32_t num_users);

  /// Fills the empty row `u` with `entries` (ascending `other`, canonical
  /// moments, n > 0) at RowBytesFor's capacity — the assembly path of the
  /// out-of-core build (sim/tile_residency.h), which writes each row once,
  /// whole, from the engine's row sweep. The row's tile must be resident.
  /// Byte accounting is deferred to FinalizeAssembledTile, called once per
  /// completed tile.
  void AssignRow(UserId u, std::span<const MomentEntry> entries);

  /// Recomputes tile `t`'s bytes after AssignRow filled its rows.
  void FinalizeAssembledTile(size_t t);

  /// Resident bytes of a row of `entries` entries: the size-plus-slack
  /// capacity that Builder, RestoreTile and AssignRow all give a row, so
  /// evict + restore is byte-accounting neutral.
  static size_t RowBytesFor(size_t entries);

  /// Folds a batch of canonical pair deltas into the store: existing pairs
  /// are additively merged (and erased when their overlap count reaches
  /// zero), unknown pairs are inserted. `deltas` must be sorted by (a, b)
  /// with no duplicate pair and a < b, and every referenced row's tile must
  /// be resident. Cost: O(sum of affected rows' degrees + batch).
  void ApplyPairDeltas(std::span<const PairMomentsDelta> deltas);

  // --- Tiles: the spill granularity. ---

  size_t num_tiles() const { return tiles_.size(); }
  /// The user-id range [first, last) of tile `t`.
  std::pair<UserId, UserId> TileUserRange(size_t t) const;
  /// True when tile `t`'s rows are in memory (queryable / foldable).
  bool TileResident(size_t t) const;
  /// Resident heap bytes of tile `t` (0 when evicted).
  size_t TileBytes(size_t t) const;

  /// Serializes tile `t`'s rows into a compact blob (row lengths + entries).
  /// The tile stays resident; pair with EvictTile to spill.
  std::string SerializeTile(size_t t) const;
  /// Releases tile `t`'s rows. Reads and folds touching the tile are invalid
  /// until RestoreTile. Returns the bytes freed.
  size_t EvictTile(size_t t);
  /// Re-materializes tile `t` from a SerializeTile blob. The tile must be
  /// evicted (restoring over live rows would silently drop updates —
  /// FailedPrecondition). Beyond shape checks, every entry is validated:
  /// `other` in range and strictly ascending within its row, never the row's
  /// own user, overlap count positive, all six moments finite. Returns
  /// InvalidArgument on a malformed blob; the tile stays evicted on error.
  Status RestoreTile(size_t t, std::string_view blob);

  // --- Full-artifact snapshot (checkpointing). ---

  /// Serializes the whole store — options, population, and every tile as an
  /// independently CRC-framed section — for the durable checkpoint
  /// container (see sim/durable_peer_graph.h). Precondition: every tile
  /// resident.
  void SerializeTo(std::string& out) const;

  /// Rebuilds a store from SerializeTo bytes. Each tile section's CRC is
  /// verified and its entries re-validated through the hardened RestoreTile,
  /// and the recomputed pair count must match the stored one. DataLoss on
  /// any mismatch.
  static Result<MomentStore> Deserialize(std::string_view bytes);

  /// Logical equality: same population, same pairs, bitwise-identical
  /// moments. Precondition: every tile of both stores resident. Byte
  /// accounting (peak_bytes) is excluded — it is telemetry, not state.
  friend bool operator==(const MomentStore& a, const MomentStore& b);

  /// Budget-aware facade: a TileResidencyManager enforcing `budget_bytes`
  /// of residency over this store's tiles, spilling least-recently-used
  /// tiles to checksummed blob files under `spill_dir` (created if missing)
  /// and faulting them back on access. The store must outlive the manager
  /// and must not move while it exists (the manager holds a pointer).
  /// Defined in sim/tile_residency.cc.
  Result<TileResidencyManager> WithBudget(size_t budget_bytes,
                                          std::string spill_dir);

  /// Resident heap bytes across all tiles (entry storage only).
  size_t ResidentBytes() const;
  /// High-water mark of the store's memory footprint over its lifetime —
  /// the metric bench_incremental_update gates with --check-peak-bytes-max.
  /// Includes the transient cost of spill traffic: while SerializeTile
  /// holds a tile's blob the footprint is resident + blob, and while
  /// RestoreTile re-materializes rows next to the caller's blob it is
  /// resident + blob + incoming rows — evict→restore cycles would otherwise
  /// under-report the true high-water mark.
  size_t peak_bytes() const { return peak_bytes_; }

 private:
  struct Tile {
    /// One vector per user id in the tile's range, sorted by `other`.
    std::vector<std::vector<MomentEntry>> rows;
    bool resident = true;
    size_t bytes = 0;
  };

  Tile& TileOf(UserId u);
  const Tile& TileOf(UserId u) const;
  std::vector<MomentEntry>& MutableRow(UserId u);
  void RecomputeTileBytes(size_t t);
  void NotePeak();
  /// Notes ResidentBytes() + `extra_bytes` as a footprint high-water —
  /// the spill paths' transient blob/row buffers (const: SerializeTile is
  /// logically read-only; the peak is telemetry, not state).
  void NoteTransientPeak(size_t extra_bytes) const;

  MomentStoreOptions options_;
  int32_t num_users_ = 0;
  int64_t num_pairs_ = 0;
  std::vector<Tile> tiles_;
  mutable size_t peak_bytes_ = 0;
};

}  // namespace fairrec

#endif  // FAIRREC_SIM_MOMENT_STORE_H_
