#ifndef FAIRREC_SIM_PAIRWISE_ENGINE_H_
#define FAIRREC_SIM_PAIRWISE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "ratings/rating_matrix.h"
#include "sim/moment_store.h"
#include "sim/pearson_finish.h"
#include "sim/pearson_finish_batch.h"
#include "sim/peer_index.h"
#include "sim/rating_similarity.h"

namespace fairrec {

class ThreadPool;

/// Tuning knobs for PairwiseSimilarityEngine.
struct PairwiseEngineOptions {
  /// Worker threads for the tile sweep (0 = hardware concurrency).
  size_t num_threads = 0;
  /// Edge length of one user-range tile. Each worker owns one B x B block of
  /// sufficient-statistics accumulators at a time (48 bytes per pair, so the
  /// default costs ~12.6 MiB per worker). Larger tiles amortize the inverted-
  /// index scan over more pairs; smaller tiles cap scratch memory.
  int32_t block_users = 512;
};

/// Phase split of one sweep, for the perf trajectory
/// (bench_similarity_precompute reports it as accumulate_seconds /
/// finish_seconds). Seconds are summed across workers' tile loops: with one
/// worker they are the wall split; with N workers divide by the achieved
/// parallelism for a wall estimate.
struct PairwiseEngineStats {
  /// Item-inverted-index accumulation (the O(co-ratings) phase).
  double accumulate_seconds = 0.0;
  /// Drain of the accumulated tiles through the batched Pearson finish
  /// kernel and the sink (the O(pairs) phase).
  double finish_seconds = 0.0;
  /// Pairs drained (every pair of the strict upper triangle, guarded or
  /// not; for the store-backed sweep of sim/tile_residency.h, every stored
  /// pair).
  int64_t pairs_finished = 0;

  // --- Residency traffic of a budgeted store-backed sweep
  // (BuildPeerIndexFromStore over a TileResidencyManager). The in-memory
  // engine paths never touch these; they stay zero there. ---

  /// Tiles faulted in from spill blobs during the sweep.
  int64_t tile_restores = 0;
  /// Tiles evicted to stay under the residency budget.
  int64_t tile_spills = 0;
  /// Spill blob bytes written during the sweep.
  uint64_t spill_bytes_written = 0;
  /// High-water of the moment store's resident bytes — the figure
  /// bench_outofcore gates against the configured budget.
  size_t peak_resident_bytes = 0;
};

/// All-pairs Pearson (Eq. 2) in O(co-ratings), not O(pairs).
///
/// The naive precompute evaluates RS(a, b) for every user pair via a sorted
/// merge of the two rating rows: O(U^2 * avg row) work and one heap-allocated
/// intersection per pair. This engine inverts the loop order: for each item i,
/// every pair (a, b) in U(i) x U(i) contributes one co-rating, so sweeping the
/// item-inverted index and accumulating the six sufficient statistics
///
///   n, sum(r_a), sum(r_b), sum(r_a^2), sum(r_b^2), sum(r_a * r_b)
///
/// touches each co-rating exactly once — total accumulation work
/// O(sum_i |U(i)|^2), which for the sparse matrices of collaborative
/// filtering is orders of magnitude below U^2 merges. Pearson is then
/// finished from the statistics (PairMoments, shared with the MapReduce
/// Job 2 reducers via sim/pearson_finish.h) in a single allocation-free
/// pass: pairs passing the overlap guard are staged into a FinishBatch and
/// flushed through the vectorized FinishPearsonBatch kernel
/// (sim/pearson_finish_batch.h — bit-identical to the scalar finish), the
/// rest short-circuit to 0. Both the global-means form the paper prints and
/// the GroupLens intersection-means variant are honoured, along with
/// min_overlap and shift_to_unit_interval.
///
/// Parallelism: the strict upper triangle of the pair matrix is tiled into
/// user-range blocks; each ThreadPool worker slot owns one tile at a time
/// plus a private accumulator block, so there are no locks and no shared
/// cache lines. Output entries are written exactly once. A column index
/// (num_items x boundaries offsets, built once per sweep) replaces the
/// per-tile binary search into every item's column, so a tile locates its
/// item sub-spans with two array loads.
///
/// Row-range restriction: a sweep may cover only the pairs a < b with a in
/// [row_first, row_last). Its boundaries are then the block grid
/// {0, B, 2B, ..., U} plus the two range edges, and its tiles lie inside
/// the range; the accumulate and drain loops are unchanged. A pair's
/// moments are Adds over its co-rated items in ascending item order
/// whatever the tile shape, so a restricted sweep yields the full sweep's
/// moments.
///
/// Output modes sharing the sweep:
///
///   * ComputeAll — the packed U^2/2 triangle, for callers that genuinely
///     need every pair (SimilarityMatrix::Precompute);
///   * BuildPeerIndex — each worker finishes its tile's pairs and feeds the
///     qualifying ones (sim >= delta, per-user bounded top-k heaps) straight
///     into PeerIndex::Builder, so the serving path's peer graph costs
///     O(U * k) memory and the triangle is never materialized. Restricted
///     to a row range it is the distributed build's worker
///     (dist/partial_artifact.h);
///   * BuildMomentStore — the raw moments of every co-rated pair.
///
/// SweepRowMoments does not tile: it yields whole store rows from each
/// user's items and their raters, so its work follows the co-ratings, never
/// U^2. The out-of-core store build (sim/tile_residency.h) runs on it.
///
/// Numerical note: finishing from raw moments is algebraically identical to
/// FinishPearson's centered two-pass form but rounds differently, so results
/// match to ~1e-12 (bit-for-bit on rating values whose sums and means are
/// exactly representable, e.g. the paper's 1..5 integer scale with power-of-
/// two overlap counts). Degenerate cases (overlap below min_overlap, zero
/// variance) return 0 exactly, as FinishPearson does. One deliberate
/// divergence: a constant co-rating row whose value is not exactly
/// representable (e.g. every rating 3.1) has true variance 0, which the
/// engine's relative-epsilon guard detects and maps to 0, while the centered
/// two-pass form can round the variance to ~1e-32 and report a spurious
/// correlation of +-1.
class PairwiseSimilarityEngine {
 public:
  /// `matrix` must outlive the engine. options.min_overlap must be >= 1
  /// (checked here, where the options are validated): 1 already disables
  /// the guard, since a pair with no co-ratings is "no evidence"
  /// regardless, and the invariant lets every finish path collapse the
  /// overlap and no-co-ratings guards into one comparison.
  explicit PairwiseSimilarityEngine(const RatingMatrix* matrix,
                                    RatingSimilarityOptions options = {},
                                    PairwiseEngineOptions engine_options = {});

  /// Entries in the packed strict upper triangle for `num_users` users.
  static size_t PackedTriangleSize(int32_t num_users);

  /// Offset of pair (a, b), a < b, in the packed row-major strict upper
  /// triangle. The single definition of the layout; SimilarityMatrix indexes
  /// its storage through this too.
  static size_t PackedTriangleIndex(UserId a, UserId b, int32_t num_users);

  /// Computes RS(a, b) for every pair a < b of the matrix's users into `out`,
  /// the packed row-major strict upper triangle (entry (a, b) at
  /// a*(n-1) - a*(a-1)/2 + b - a - 1). `out.size()` must equal
  /// PackedTriangleSize(matrix->num_users()). `stats`, when non-null,
  /// receives the sweep's accumulate/finish phase split.
  Status ComputeAll(std::span<double> out,
                    PairwiseEngineStats* stats = nullptr) const;

  /// Allocating convenience wrapper around the span overload.
  Result<std::vector<double>> ComputeAll() const;

  /// Runs the same tiled sweep but emits the sparse peer graph of Def. 1
  /// directly: every pair with RS(a, b) >= peer_options.delta enters both
  /// users' lists, bounded to the top max_peers_per_user by the BetterPeer
  /// order. The packed triangle is never allocated; peak memory is the
  /// per-worker accumulator tiles plus the peer lists themselves.
  Result<PeerIndex> BuildPeerIndex(const PeerIndexOptions& peer_options,
                                   PairwiseEngineStats* stats = nullptr) const;

  /// BuildPeerIndex restricted to the pairs a < b with a in
  /// [row_first, row_last), swept on the calling thread: the index spans
  /// the whole population but holds only offers of those pairs.
  /// InvalidArgument when the range leaves [0, num_users].
  Result<PeerIndex> BuildPeerIndex(const PeerIndexOptions& peer_options,
                                   UserId row_first, UserId row_last,
                                   PairwiseEngineStats* stats = nullptr) const;

  /// Runs the sweep once more, but captures the raw per-pair sufficient
  /// statistics of every co-rated pair (n > 0) instead of finishing them:
  /// the persistent MomentStore that seeds incremental peer-graph
  /// maintenance (sim/incremental_peer_graph.h). Each pair's moments come
  /// from exactly one tile, so the stored statistics are identical to what
  /// the triangle and peer-index modes finish from.
  Result<MomentStore> BuildMomentStore(
      const MomentStoreOptions& store_options = {},
      PairwiseEngineStats* stats = nullptr) const;

  /// Receives one row of SweepRowMoments: the user and its entries,
  /// valid only during the call. A non-OK status stops the sweep.
  using RowVisitor =
      std::function<Status(UserId u, std::span<const MomentEntry> row)>;

  /// Every row of BuildMomentStore's store, users ascending: `visit(u, row)`
  /// gets u's co-rated partners ascending by id with the pair's canonical
  /// (a < b) moments. Row u is accumulated over I(u) in ascending item
  /// order, so each pair gets the tiled sweep's Adds in its order: the rows
  /// are bitwise the stored ones. Work is sum_i |U(i)|^2 Adds plus a sort
  /// per row; scratch is 4 bytes per user plus the largest row; on the
  /// calling thread. Returns the first non-OK status of `visit`.
  Status SweepRowMoments(const RowVisitor& visit) const;

  /// True when the finish would return 0 at the overlap guard without
  /// evaluating Eq. 2 — the staging fast path: callers drop such pairs (or
  /// record a literal 0) instead of occupying a batch lane. min_overlap >= 1
  /// is validated at construction, so the single comparison also covers the
  /// no-co-ratings case.
  bool SkipsFinish(const PairMoments& stats) const {
    return stats.n < options_.min_overlap;
  }

  const RatingSimilarityOptions& options() const { return options_; }
  const PairwiseEngineOptions& engine_options() const { return engine_options_; }

 private:
  /// One tile of the pair triangle: rows [row_first, row_last) x
  /// cols [col_first, col_last), with col_first >= row_first. Each range
  /// spans two adjacent boundaries of the sweep's ColumnBlockIndex;
  /// row_slot / col_slot are the indices of their first boundary.
  struct Tile {
    UserId row_first = 0;
    UserId row_last = 0;
    UserId col_first = 0;
    UserId col_last = 0;
    size_t row_slot = 0;
    size_t col_slot = 0;
  };

  /// Per-boundary column offsets: offsets[i * boundaries.size() + k] is the
  /// index into U(i) of the first entry with user id >= boundaries[k].
  /// Built once per sweep so tiles slice their row/column sub-spans with two
  /// loads instead of a binary search per (item, tile).
  struct ColumnBlockIndex {
    /// Ascending, from 0 to num_users.
    std::vector<UserId> boundaries;
    std::vector<uint32_t> offsets;
  };

  /// `pool` null fills the index on the calling thread.
  ColumnBlockIndex BuildColumnIndex(std::vector<UserId> boundaries,
                                    ThreadPool* pool) const;

  /// Accumulates one tile, then drains it. Sinks come in two shapes,
  /// selected at compile time by Sink::kFinishesPairs:
  ///
  ///   * finishing sinks (triangle writer, peer-index offers) receive
  ///     `sink.OnFinished(a, b, sim)`: the drain stages each pair that
  ///     passes the overlap guard into a FinishBatch and flushes through
  ///     the vectorized FinishPearsonBatch kernel, emitting guarded pairs
  ///     as literal 0 immediately (so OnFinished calls are not globally
  ///     ordered — only batches of them are);
  ///   * raw sinks (BuildMomentStore) receive
  ///     `sink(a, b, stats)` with the untouched statistics in (a asc,
  ///     b asc) row-major order.
  ///
  /// `stats` (never null; per-worker) accrues the accumulate/finish phase
  /// split and the drained pair count.
  template <typename Sink>
  void SweepTile(const Tile& tile, const ColumnBlockIndex& columns,
                 std::vector<PairMoments>& acc, Sink& sink,
                 PairwiseEngineStats& stats) const;

  /// Shared driver: validates options and the row range, tiles the pairs
  /// a < b with a in [row_first, row_last), builds the column index, and
  /// sweeps every tile across `pool` (null: on the calling thread, in tile
  /// order). `make_sink()` produces a fresh sink per tile. `stats`, when
  /// non-null, receives the per-worker phase splits summed over the sweep.
  template <typename SinkFactory>
  Status SweepTiles(UserId row_first, UserId row_last, ThreadPool* pool,
                    const SinkFactory& make_sink,
                    PairwiseEngineStats* stats) const;

  /// Both BuildPeerIndex overloads: the sweep of the row range across
  /// `pool`.
  Result<PeerIndex> SweepPeerIndex(const PeerIndexOptions& peer_options,
                                   UserId row_first, UserId row_last,
                                   ThreadPool* pool,
                                   PairwiseEngineStats* stats) const;

  const RatingMatrix* matrix_;
  RatingSimilarityOptions options_;
  PairwiseEngineOptions engine_options_;
};

}  // namespace fairrec

#endif  // FAIRREC_SIM_PAIRWISE_ENGINE_H_
