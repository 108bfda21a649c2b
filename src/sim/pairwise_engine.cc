#include "sim/pairwise_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace fairrec {

namespace {

/// Sink for ComputeAll: writes each finished pair into the packed triangle.
/// The drain delivers row runs out of strict order (guarded pairs emit
/// immediately, staged pairs on batch flush), so the sink caches the row
/// base offset and re-derives it only when the row changes — a handful of
/// times per flush.
class TriangleSink {
 public:
  static constexpr bool kFinishesPairs = true;

  TriangleSink(std::span<double> out, int32_t num_users)
      : out_(out), num_users_(num_users) {}

  void OnFinished(UserId a, UserId b, double sim) {
    if (a != row_) {
      row_ = a;
      const int64_t n = num_users_;
      const int64_t r = a;
      // PackedTriangleIndex(a, b) == row_base_ + b for this row; the base
      // is negative for row 0 (b >= 1 restores a valid offset).
      row_base_ = r * (n - 1) - r * (r - 1) / 2 - r - 1;
    }
    out_[static_cast<size_t>(row_base_ + b)] = sim;
  }

 private:
  std::span<double> out_;
  int32_t num_users_;
  UserId row_ = kInvalidUserId;
  int64_t row_base_ = 0;
};

/// Sink for BuildPeerIndex: Def. 1's threshold, then both directions of the
/// pair into the concurrent builder. Filtering before the builder keeps the
/// lock stripes out of the (overwhelmingly common) non-qualifying case.
struct PeerSink {
  static constexpr bool kFinishesPairs = true;

  PeerIndex::Builder* builder;
  double delta;

  void OnFinished(UserId a, UserId b, double sim) const {
    if (sim >= delta) builder->OfferPair(a, b, sim);
  }
};

/// Sink for BuildMomentStore: keeps the raw statistics of co-rated pairs —
/// the one sweep mode that does not finish, so it bypasses the batch
/// kernel. The n == 0 filter makes the store O(co-rated pairs); pairs
/// without co-ratings finish to 0 from an empty PairMoments anyway.
struct MomentSink {
  static constexpr bool kFinishesPairs = false;

  MomentStore::Builder* builder;

  void operator()(UserId a, UserId b, const PairMoments& stats) const {
    if (stats.n > 0) builder->Add(a, b, stats);
  }
};

/// fn(worker, i) for every i in [0, count): across `pool`, or on the
/// calling thread as worker 0 when `pool` is null.
void ForEachIndexed(ThreadPool* pool, size_t count,
                    const std::function<void(size_t, size_t)>& fn) {
  if (pool != nullptr) return pool->ParallelForIndexed(count, fn);
  for (size_t i = 0; i < count; ++i) fn(0, i);
}

}  // namespace

size_t PairwiseSimilarityEngine::PackedTriangleIndex(UserId a, UserId b,
                                                     int32_t num_users) {
  const size_t n = static_cast<size_t>(num_users);
  const size_t row = static_cast<size_t>(a);
  const size_t row_offset = row * (n - 1) - row * (row - 1) / 2;
  return row_offset + static_cast<size_t>(b) - row - 1;
}

PairwiseSimilarityEngine::PairwiseSimilarityEngine(
    const RatingMatrix* matrix, RatingSimilarityOptions options,
    PairwiseEngineOptions engine_options)
    : matrix_(matrix),
      options_(options),
      engine_options_(engine_options) {
  FAIRREC_CHECK(matrix != nullptr);
  // The invariant every finish path relies on: with min_overlap >= 1 the
  // overlap guard subsumes the n == 0 no-evidence case, so SkipsFinish is a
  // single comparison. min_overlap <= 0 would not widen
  // semantics anyway (1 already disables the guard).
  FAIRREC_CHECK(options.min_overlap >= 1);
}

size_t PairwiseSimilarityEngine::PackedTriangleSize(int32_t num_users) {
  if (num_users <= 1) return 0;
  const size_t n = static_cast<size_t>(num_users);
  return n * (n - 1) / 2;
}

PairwiseSimilarityEngine::ColumnBlockIndex
PairwiseSimilarityEngine::BuildColumnIndex(std::vector<UserId> boundaries,
                                           ThreadPool* pool) const {
  ColumnBlockIndex index;
  index.boundaries = std::move(boundaries);
  const int32_t num_items = matrix_->num_items();
  const size_t stride = index.boundaries.size();
  index.offsets.assign(static_cast<size_t>(num_items) * stride, 0);
  if (num_items == 0) return index;

  // One merge of U(i) against the boundaries per item: O(|U(i)| +
  // boundaries), versus a binary search per (item, tile) in the sweep.
  const RatingMatrix* matrix = matrix_;
  uint32_t* offsets = index.offsets.data();
  const UserId* bounds = index.boundaries.data();
  ForEachIndexed(pool, static_cast<size_t>(num_items),
                 [matrix, offsets, stride, bounds](size_t, size_t item) {
    const auto column = matrix->UsersWhoRated(static_cast<ItemId>(item));
    uint32_t* row = offsets + item * stride;
    size_t j = 0;
    for (size_t k = 0; k < stride; ++k) {
      while (j < column.size() && column[j].user < bounds[k]) ++j;
      row[k] = static_cast<uint32_t>(j);
    }
  });
  return index;
}

template <typename Sink>
void PairwiseSimilarityEngine::SweepTile(const Tile& tile,
                                         const ColumnBlockIndex& columns,
                                         std::vector<PairMoments>& acc,
                                         Sink& sink,
                                         PairwiseEngineStats& stats) const {
  const size_t cols = static_cast<size_t>(tile.col_last - tile.col_first);
  const bool diagonal = tile.row_first == tile.col_first;
  const size_t stride = columns.boundaries.size();
  const size_t rb = tile.row_slot;
  const size_t cb = tile.col_slot;

  // ---- Accumulation: one pass over the item-inverted index. ----
  Stopwatch clock;
  const int32_t num_items = matrix_->num_items();
  for (ItemId i = 0; i < num_items; ++i) {
    const uint32_t* off = &columns.offsets[static_cast<size_t>(i) * stride];
    const uint32_t row_first = off[rb];
    const uint32_t row_last = off[rb + 1];
    if (row_first == row_last) continue;
    const auto column = matrix_->UsersWhoRated(i);
    const auto rows = column.subspan(row_first, row_last - row_first);
    const auto col_span =
        diagonal ? rows : column.subspan(off[cb], off[cb + 1] - off[cb]);
    if (col_span.empty()) continue;
    for (size_t p = 0; p < rows.size(); ++p) {
      const size_t row_base =
          static_cast<size_t>(rows[p].user - tile.row_first) * cols;
      const double ra = rows[p].value;
      // On the diagonal only pairs a < b exist; off the diagonal every
      // (row user, col user) combination is a distinct pair.
      for (size_t q = diagonal ? p + 1 : 0; q < col_span.size(); ++q) {
        PairMoments& cell =
            acc[row_base + static_cast<size_t>(col_span[q].user - tile.col_first)];
        cell.Add(ra, col_span[q].value);
      }
    }
  }
  stats.accumulate_seconds += clock.ElapsedSeconds();

  // ---- Drain: one allocation-free pass over the tile's pairs. ----
  clock.Restart();
  if constexpr (Sink::kFinishesPairs) {
    // Stage pairs that pass the overlap guard into the batched kernel;
    // guarded pairs (the overwhelming majority on sparse corpora)
    // short-circuit to a literal 0 — the exact value the kernel's mask
    // pass would produce for them.
    struct PairRef {
      UserId a, b;
    };
    auto stream = MakePearsonFinishStream<PairRef>(
        options_,
        [&sink](PairRef pair, double sim) {
          sink.OnFinished(pair.a, pair.b, sim);
        });
    for (UserId a = tile.row_first; a < tile.row_last; ++a) {
      const UserId b_first = diagonal ? a + 1 : tile.col_first;
      const size_t row_base = static_cast<size_t>(a - tile.row_first) * cols;
      const double mean_a = matrix_->UserMean(a);
      for (UserId b = b_first; b < tile.col_last; ++b) {
        PairMoments& cell =
            acc[row_base + static_cast<size_t>(b - tile.col_first)];
        if (SkipsFinish(cell)) {
          sink.OnFinished(a, b, 0.0);
        } else {
          stream.Stage(cell, mean_a, matrix_->UserMean(b), {a, b});
        }
        cell = PairMoments{};  // reset for the worker's next tile
      }
    }
    stream.Flush();  // the tile's ragged tail, inside the timed drain
  } else {
    for (UserId a = tile.row_first; a < tile.row_last; ++a) {
      const UserId b_first = diagonal ? a + 1 : tile.col_first;
      const size_t row_base = static_cast<size_t>(a - tile.row_first) * cols;
      for (UserId b = b_first; b < tile.col_last; ++b) {
        PairMoments& cell =
            acc[row_base + static_cast<size_t>(b - tile.col_first)];
        sink(a, b, cell);
        cell = PairMoments{};  // reset for the worker's next tile
      }
    }
  }
  stats.finish_seconds += clock.ElapsedSeconds();

  // Drained pair count, from the tile shape (no per-pair counter).
  if (diagonal) {
    const int64_t edge = tile.row_last - tile.row_first;
    stats.pairs_finished += edge * (edge - 1) / 2;
  } else {
    stats.pairs_finished +=
        static_cast<int64_t>(tile.row_last - tile.row_first) *
        static_cast<int64_t>(tile.col_last - tile.col_first);
  }
}

template <typename SinkFactory>
Status PairwiseSimilarityEngine::SweepTiles(UserId row_first, UserId row_last,
                                            ThreadPool* pool,
                                            const SinkFactory& make_sink,
                                            PairwiseEngineStats* stats) const {
  const int32_t num_users = matrix_->num_users();
  if (engine_options_.block_users <= 0) {
    return Status::InvalidArgument("block_users must be positive");
  }
  if (row_first < 0 || row_first > row_last || row_last > num_users) {
    return Status::InvalidArgument("row range outside [0, " +
                                   std::to_string(num_users) + "]");
  }
  if (num_users <= 1) return Status::OK();

  // Boundaries: the block_users grid, plus the row range's edges. Clamping
  // the block to the population keeps small-corpus scratch proportional to
  // the real tile size instead of the configured block. The grid keeps
  // every tile within block x block, so the accumulator size is fixed.
  const int32_t block = std::min(engine_options_.block_users, num_users);
  std::vector<UserId> boundaries;
  for (UserId b = 0; b < num_users; b += block) boundaries.push_back(b);
  boundaries.insert(boundaries.end(), {num_users, row_first, row_last});
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());

  // Tiles in row-major slot order: a tile is a pair of slots (row k, col m)
  // with m >= k, since slots with m < k hold only pairs a > b. Both range
  // edges are boundaries, so a row slot lies wholly inside or outside it.
  const auto slot_of = [&boundaries](UserId user) {
    return static_cast<size_t>(
        std::lower_bound(boundaries.begin(), boundaries.end(), user) -
        boundaries.begin());
  };
  std::vector<Tile> tiles;
  for (size_t k = slot_of(row_first); k < slot_of(row_last); ++k) {
    for (size_t m = k; m + 1 < boundaries.size(); ++m) {
      tiles.push_back({boundaries[k], boundaries[k + 1], boundaries[m],
                       boundaries[m + 1], k, m});
    }
  }
  if (tiles.empty()) return Status::OK();

  const ColumnBlockIndex columns = BuildColumnIndex(std::move(boundaries), pool);
  // Per-worker-slot accumulator blocks, allocated lazily on first tile. The
  // finish pass leaves every visited cell zeroed, so no per-tile memset is
  // needed: untouched cells stay default-constructed across tiles.
  const size_t num_slots =
      pool != nullptr ? std::min(pool->num_threads(), tiles.size()) : 1;
  std::vector<std::vector<PairMoments>> scratch(num_slots);
  std::vector<PairwiseEngineStats> worker_stats(num_slots);
  const size_t cells = static_cast<size_t>(block) * static_cast<size_t>(block);
  ForEachIndexed(pool, tiles.size(), [&](size_t worker, size_t t) {
    std::vector<PairMoments>& acc = scratch[worker];
    if (acc.size() != cells) acc.assign(cells, PairMoments{});
    auto sink = make_sink();
    SweepTile(tiles[t], columns, acc, sink, worker_stats[worker]);
  });
  if (stats != nullptr) {
    for (const PairwiseEngineStats& w : worker_stats) {
      stats->accumulate_seconds += w.accumulate_seconds;
      stats->finish_seconds += w.finish_seconds;
      stats->pairs_finished += w.pairs_finished;
    }
  }
  return Status::OK();
}

Status PairwiseSimilarityEngine::ComputeAll(std::span<double> out,
                                            PairwiseEngineStats* stats) const {
  const int32_t num_users = matrix_->num_users();
  if (out.size() != PackedTriangleSize(num_users)) {
    return Status::InvalidArgument(
        "output span holds " + std::to_string(out.size()) +
        " entries; packed triangle needs " +
        std::to_string(PackedTriangleSize(num_users)));
  }
  ThreadPool pool(engine_options_.num_threads);
  return SweepTiles(0, num_users, &pool,
                    [&] { return TriangleSink(out, num_users); }, stats);
}

Result<PeerIndex> PairwiseSimilarityEngine::BuildPeerIndex(
    const PeerIndexOptions& peer_options, PairwiseEngineStats* stats) const {
  ThreadPool pool(engine_options_.num_threads);
  return SweepPeerIndex(peer_options, 0, matrix_->num_users(), &pool, stats);
}

Result<PeerIndex> PairwiseSimilarityEngine::BuildPeerIndex(
    const PeerIndexOptions& peer_options, UserId row_first, UserId row_last,
    PairwiseEngineStats* stats) const {
  return SweepPeerIndex(peer_options, row_first, row_last, /*pool=*/nullptr,
                        stats);
}

Result<PeerIndex> PairwiseSimilarityEngine::SweepPeerIndex(
    const PeerIndexOptions& peer_options, UserId row_first, UserId row_last,
    ThreadPool* pool, PairwiseEngineStats* stats) const {
  if (peer_options.max_peers_per_user < 0) {
    return Status::InvalidArgument("max_peers_per_user must be >= 0");
  }
  PeerIndex::Builder builder(matrix_->num_users(), peer_options);
  FAIRREC_RETURN_NOT_OK(SweepTiles(
      row_first, row_last, pool,
      [&] { return PeerSink{&builder, peer_options.delta}; }, stats));
  return std::move(builder).Build();
}

Result<MomentStore> PairwiseSimilarityEngine::BuildMomentStore(
    const MomentStoreOptions& store_options,
    PairwiseEngineStats* stats) const {
  if (store_options.tile_users <= 0) {
    return Status::InvalidArgument("tile_users must be positive");
  }
  MomentStore::Builder builder(matrix_->num_users(), store_options);
  ThreadPool pool(engine_options_.num_threads);
  FAIRREC_RETURN_NOT_OK(SweepTiles(0, matrix_->num_users(), &pool,
                                   [&] { return MomentSink{&builder}; },
                                   stats));
  return std::move(builder).Build();
}

Status PairwiseSimilarityEngine::SweepRowMoments(
    const RowVisitor& visit) const {
  const int32_t num_users = matrix_->num_users();
  // slot[b] is b's index in `row` while b is a partner of the current row.
  // Each row resets only the slots it set, so the scratch is O(U) once.
  constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> slot(static_cast<size_t>(num_users), kNoSlot);
  std::vector<MomentEntry> row;
  for (UserId u = 0; u < num_users; ++u) {
    for (const ItemRating& own : matrix_->ItemsRatedBy(u)) {
      for (const UserRating& other : matrix_->UsersWhoRated(own.item)) {
        if (other.user == u) continue;
        uint32_t& s = slot[static_cast<size_t>(other.user)];
        if (s == kNoSlot) {
          s = static_cast<uint32_t>(row.size());
          row.push_back({other.user, PairMoments{}});
        }
        // Canonical orientation: the lower id's rating first.
        if (u < other.user) {
          row[s].moments.Add(own.value, other.value);
        } else {
          row[s].moments.Add(other.value, own.value);
        }
      }
    }
    for (const MomentEntry& entry : row) {
      slot[static_cast<size_t>(entry.other)] = kNoSlot;
    }
    std::sort(row.begin(), row.end(),
              [](const MomentEntry& x, const MomentEntry& y) {
                return x.other < y.other;
              });
    FAIRREC_RETURN_NOT_OK(visit(u, row));
    row.clear();
  }
  return Status::OK();
}

Result<std::vector<double>> PairwiseSimilarityEngine::ComputeAll() const {
  std::vector<double> out(PackedTriangleSize(matrix_->num_users()), 0.0);
  FAIRREC_RETURN_NOT_OK(ComputeAll(std::span<double>(out)));
  return out;
}

}  // namespace fairrec
