#include "sim/incremental_peer_graph.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace fairrec {

namespace {

/// Canonical pair (a < b) packed into one map key.
uint64_t PairKey(UserId a, UserId b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

UserId KeyA(uint64_t key) { return static_cast<UserId>(key >> 32); }
UserId KeyB(uint64_t key) {
  return static_cast<UserId>(key & 0xffffffffull);
}

/// One upsert with the value it supersedes (absent for brand-new cells).
struct CellChange {
  UserId user = kInvalidUserId;
  ItemId item = kInvalidItemId;
  double value = 0.0;
  bool has_old = false;
  double old_value = 0.0;
};

/// One similarity change delivered to a row: the neighbour whose entry
/// moves and its freshly finished similarity.
struct RowChange {
  UserId row = kInvalidUserId;
  UserId other = kInvalidUserId;
  double sim = 0.0;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Status ValidateOptions(const IncrementalPeerGraphOptions& options) {
  if (!(options.peers.delta > 0.0)) {
    return Status::InvalidArgument(
        "incremental maintenance requires a positive peer delta: with "
        "delta <= 0 every no-co-rating pair qualifies and the graph has no "
        "sparse form");
  }
  if (options.peers.max_peers_per_user < 0) {
    return Status::InvalidArgument("max_peers_per_user must be >= 0");
  }
  if (options.store.tile_users <= 0) {
    return Status::InvalidArgument("store.tile_users must be positive");
  }
  if (options.store_budget_bytes > 0 && options.store_spill_dir.empty()) {
    return Status::InvalidArgument(
        "store_budget_bytes needs a store_spill_dir to evict tiles into");
  }
  return Status::OK();
}

}  // namespace

Result<IncrementalPeerGraph> IncrementalPeerGraph::Build(
    RatingMatrix matrix, IncrementalPeerGraphOptions options) {
  FAIRREC_RETURN_NOT_OK(ValidateOptions(options));

  IncrementalPeerGraph graph;
  graph.options_ = options;
  graph.cost_model_ = PatchCostModel(options.patch_pair_cost);
  graph.matrix_ = std::make_shared<const RatingMatrix>(std::move(matrix));
  const PairwiseSimilarityEngine engine(graph.matrix_.get(),
                                        options.similarity, options.engine);
  const auto start = std::chrono::steady_clock::now();
  FAIRREC_ASSIGN_OR_RETURN(MomentStore store,
                           engine.BuildMomentStore(options.store));
  graph.store_ = std::make_unique<MomentStore>(std::move(store));
  FAIRREC_ASSIGN_OR_RETURN(PeerIndex index,
                           engine.BuildPeerIndex(options.peers));
  if (options.calibrate_planner) {
    // The seeding sweep is a free rebuild sample: the cost model's rebuild
    // side is primed before the first delta ever arrives.
    graph.cost_model_.ObserveRebuild(graph.RebuildCostUnits(),
                                     SecondsSince(start));
  }
  graph.index_ = std::make_shared<const PeerIndex>(std::move(index));
  FAIRREC_RETURN_NOT_OK(graph.AttachResidency());
  return graph;
}

Result<IncrementalPeerGraph> IncrementalPeerGraph::FromArtifacts(
    RatingMatrix matrix, MomentStore store, PeerIndex index,
    IncrementalPeerGraphOptions options) {
  FAIRREC_RETURN_NOT_OK(ValidateOptions(options));
  if (store.num_users() != matrix.num_users() ||
      index.num_users() != matrix.num_users()) {
    return Status::InvalidArgument(
        "artifact population mismatch: matrix " +
        std::to_string(matrix.num_users()) + " users, store " +
        std::to_string(store.num_users()) + ", index " +
        std::to_string(index.num_users()));
  }
  IncrementalPeerGraph graph;
  graph.options_ = options;
  graph.cost_model_ = PatchCostModel(options.patch_pair_cost);
  graph.matrix_ = std::make_shared<const RatingMatrix>(std::move(matrix));
  graph.store_ = std::make_unique<MomentStore>(std::move(store));
  graph.index_ = std::make_shared<const PeerIndex>(std::move(index));
  FAIRREC_RETURN_NOT_OK(graph.AttachResidency());
  return graph;
}

Status IncrementalPeerGraph::AttachResidency() {
  if (options_.store_budget_bytes == 0) return Status::OK();
  FAIRREC_ASSIGN_OR_RETURN(
      TileResidencyManager manager,
      store_->WithBudget(options_.store_budget_bytes,
                         options_.store_spill_dir));
  residency_ = std::make_unique<TileResidencyManager>(std::move(manager));
  return residency_->EnforceBudget();
}

Status IncrementalPeerGraph::EnsureStoreResident() {
  if (residency_ == nullptr) return Status::OK();
  return residency_->RestoreAll();
}

std::vector<Peer> IncrementalPeerGraph::RefinishRow(
    const PairwiseSimilarityEngine& engine, UserId v) const {
  std::vector<Peer> row;
  const auto entries = store_->RowOf(v);
  row.reserve(entries.size());
  // Stage the row's stored moments into the batched kernel — the
  // bit-identical vectorized form of the finish the full sweep applies.
  // Stored moments are canonically oriented, so each stages as (min, max)
  // with the matching global means, the exact call the full sweep makes.
  // Guarded pairs finish to 0 exactly and delta > 0 (validated in Build),
  // so they are dropped without occupying a lane.
  {
    const double threshold = options_.peers.delta;
    auto stream = MakePearsonFinishStream<UserId>(
        engine.options(), [&row, threshold](UserId other, double sim) {
          if (sim >= threshold) row.push_back({other, sim});
        });
    for (const MomentEntry& entry : entries) {
      if (engine.SkipsFinish(entry.moments)) continue;
      const UserId a = std::min(v, entry.other);
      const UserId b = std::max(v, entry.other);
      stream.Stage(entry.moments, matrix_->UserMean(a), matrix_->UserMean(b),
                   entry.other);
    }
  }  // stream destruction flushes the tail
  const int32_t cap = options_.peers.max_peers_per_user;
  if (cap > 0 && row.size() > static_cast<size_t>(cap)) {
    std::nth_element(row.begin(), row.begin() + cap, row.end(), BetterPeer);
    row.resize(static_cast<size_t>(cap));
  }
  std::sort(row.begin(), row.end(), BetterPeer);
  return row;
}

Status IncrementalPeerGraph::RebuildFromScratch(RatingMatrix new_matrix) {
  // The planner's fallback is exactly the seeding build: swap the corpus,
  // re-sweep store and index. The result *is* the parity reference the
  // patch path is tested against, so the contract holds trivially here.
  // A fresh shared_ptr, not assignment through the old one: published
  // matrix snapshots stay immutable.
  matrix_ = std::make_shared<const RatingMatrix>(std::move(new_matrix));
  const PairwiseSimilarityEngine engine(matrix_.get(), options_.similarity,
                                        options_.engine);
  const auto start = std::chrono::steady_clock::now();
  // The rebuild replaces every tile, so the old manager's spill blobs are
  // all stale: drop the manager (its destructor removes the blobs) before
  // assigning through the stable store address, then re-attach.
  residency_.reset();
  FAIRREC_ASSIGN_OR_RETURN(*store_, engine.BuildMomentStore(options_.store));
  FAIRREC_ASSIGN_OR_RETURN(PeerIndex index,
                           engine.BuildPeerIndex(options_.peers));
  if (options_.calibrate_planner) {
    cost_model_.ObserveRebuild(RebuildCostUnits(), SecondsSince(start));
  }
  index_ = std::make_shared<const PeerIndex>(std::move(index));
  return AttachResidency();
}

double IncrementalPeerGraph::RebuildCostUnits() const {
  double co_rating_mass = 0.0;
  for (ItemId i = 0; i < matrix_->num_items(); ++i) {
    const double column = static_cast<double>(matrix_->UsersWhoRated(i).size());
    co_rating_mass += column * (column - 1.0) / 2.0;
  }
  // The finish pass touches every pair, but the batched kernel plus the
  // overlap fast path make it ~an order of magnitude cheaper per pair than
  // a patch-side touch.
  return co_rating_mass +
         static_cast<double>(PairwiseSimilarityEngine::PackedTriangleSize(
             matrix_->num_users())) /
             8.0;
}

Result<DeltaApplyStats> IncrementalPeerGraph::ApplyDelta(
    const RatingDelta& delta) {
  DeltaApplyStats stats;
  const std::span<const RatingTriple> upserts = delta.upserts();
  stats.num_upserts = static_cast<int64_t>(upserts.size());
  if (upserts.empty()) return stats;

  // ---- 0. Superseded values, read against the pre-delta corpus. ----
  std::vector<CellChange> cells;
  cells.reserve(upserts.size());
  for (const RatingTriple& t : upserts) {
    const std::optional<Rating> old = matrix_->GetRating(t.user, t.item);
    cells.push_back(
        {t.user, t.item, t.value, old.has_value(), old.value_or(0.0)});
  }

  // ---- 0.5. Batch-size-aware planning: patch or rebuild? The patch cost
  // scales with the touched-item column mass (each changed cell pairs
  // against its whole column, and each such pair pays the hash-map fold /
  // store merge / re-finish constants); the rebuild cost is the full
  // sweep's co-rating accumulation plus its vectorized finish pass. Past
  // the crossover, patching does strictly more expensive work than
  // re-sweeping — fall back to Build. With planning disabled the O(items)
  // estimate scan is skipped entirely and the stats estimates stay 0.
  double touched_mass = 0.0;
  if (options_.rebuild_fallback_ratio > 0.0) {
    for (const CellChange& cell : cells) {
      // Brand-new items have no pre-delta column (their first raters pair
      // only against the batch itself, a negligible mass).
      if (cell.item < 0 || cell.item >= matrix_->num_items()) continue;
      touched_mass +=
          static_cast<double>(matrix_->UsersWhoRated(cell.item).size());
    }
    // The exchange rate: the cost model's calibrated ratio once it has
    // timed at least one patch and one rebuild, the configured prior until
    // then (and always, when calibration is off).
    const double pair_cost = options_.calibrate_planner
                                 ? cost_model_.pair_cost()
                                 : options_.patch_pair_cost;
    stats.patch_pair_cost_used = pair_cost;
    stats.estimated_patch_cost = touched_mass * pair_cost;
    stats.estimated_rebuild_cost = RebuildCostUnits();
    if (stats.estimated_rebuild_cost >= options_.planner_min_rebuild_cost &&
        stats.estimated_patch_cost >
            options_.rebuild_fallback_ratio * stats.estimated_rebuild_cost) {
      FAIRREC_ASSIGN_OR_RETURN(RatingMatrix new_matrix,
                               delta.ApplyTo(*matrix_));
      FAIRREC_RETURN_NOT_OK(RebuildFromScratch(std::move(new_matrix)));
      stats.used_full_rebuild = true;
      if (residency_ != nullptr) stats.resident_bytes = store_->ResidentBytes();
      return stats;
    }
  }
  const auto patch_start = std::chrono::steady_clock::now();

  // ---- 1. Fold the batch into the corpus. ----
  FAIRREC_ASSIGN_OR_RETURN(RatingMatrix new_matrix, delta.ApplyTo(*matrix_));
  const std::vector<UserId> delta_users = delta.TouchedUsers();
  std::vector<uint8_t> in_delta(static_cast<size_t>(new_matrix.num_users()), 0);
  for (const UserId u : delta_users) in_delta[static_cast<size_t>(u)] = 1;
  if (residency_ != nullptr && new_matrix.num_users() > store_->num_users() &&
      store_->num_tiles() > 0) {
    // Growing the population resizes the tail tile's row vector, which
    // requires it resident — and stales any spill blob of its old shape.
    const size_t tail = store_->num_tiles() - 1;
    FAIRREC_RETURN_NOT_OK(residency_->EnsureResident(tail));
    store_->EnsureNumUsers(new_matrix.num_users());
    residency_->SyncShape();
    residency_->NoteTileDirty(tail);
  } else {
    store_->EnsureNumUsers(new_matrix.num_users());
    if (residency_ != nullptr) residency_->SyncShape();
  }

  // ---- 2. Delta sweep: only the touched item columns. ----
  // Each changed rating pairs against its item's post-delta column; the
  // superseded value (if any) is removed from the same pairs. Pairs between
  // two changed ratings of one item are handled once, on the canonical
  // orientation.
  std::vector<const CellChange*> by_item;
  by_item.reserve(cells.size());
  for (const CellChange& cell : cells) by_item.push_back(&cell);
  std::sort(by_item.begin(), by_item.end(),
            [](const CellChange* x, const CellChange* y) {
              return x->item != y->item ? x->item < y->item
                                        : x->user < y->user;
            });

  std::unordered_map<uint64_t, PairMoments> pair_deltas;
  std::vector<int32_t> change_at;  // column position -> index into the group
  for (size_t first = 0; first < by_item.size();) {
    size_t last = first;
    while (last < by_item.size() &&
           by_item[last]->item == by_item[first]->item) {
      ++last;
    }
    ++stats.touched_items;
    const ItemId item = by_item[first]->item;
    const auto column = new_matrix.UsersWhoRated(item);

    // Mark which column entries belong to this item's changed cells (both
    // are user-ascending, so one merge suffices).
    change_at.assign(column.size(), -1);
    {
      size_t g = first;
      for (size_t c = 0; c < column.size() && g < last; ++c) {
        if (column[c].user == by_item[g]->user) {
          change_at[c] = static_cast<int32_t>(g);
          ++g;
        }
      }
    }

    for (size_t g = first; g < last; ++g) {
      const CellChange& cell = *by_item[g];
      for (size_t c = 0; c < column.size(); ++c) {
        const UserId v = column[c].user;
        if (v == cell.user) continue;
        if (change_at[c] >= 0) {
          // Both sides of the pair changed on this item: fold once, from
          // the smaller user id.
          if (cell.user > v) continue;
          const CellChange& other = *by_item[static_cast<size_t>(change_at[c])];
          PairMoments& d = pair_deltas[PairKey(cell.user, v)];
          d.Add(cell.value, other.value);
          if (cell.has_old && other.has_old) {
            d.Remove(cell.old_value, other.old_value);
          }
        } else {
          // The neighbour's rating is unchanged; orient the co-rating so
          // the smaller user id is the 'a' role, as the full sweep does.
          const double r_v = column[c].value;
          if (cell.user < v) {
            PairMoments& d = pair_deltas[PairKey(cell.user, v)];
            d.Add(cell.value, r_v);
            if (cell.has_old) d.Remove(cell.old_value, r_v);
          } else {
            PairMoments& d = pair_deltas[PairKey(v, cell.user)];
            d.Add(r_v, cell.value);
            if (cell.has_old) d.Remove(r_v, cell.old_value);
          }
        }
      }
    }
    first = last;
  }

  std::vector<PairMomentsDelta> moment_deltas;
  moment_deltas.reserve(pair_deltas.size());
  for (const auto& [key, d] : pair_deltas) {
    moment_deltas.push_back({KeyA(key), KeyB(key), d});
  }
  std::sort(moment_deltas.begin(), moment_deltas.end(),
            [](const PairMomentsDelta& x, const PairMomentsDelta& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  stats.changed_pairs = static_cast<int64_t>(moment_deltas.size());

  // ---- 2.5. Under a residency budget, fault in and pin every tile the
  // patch reads or writes: the delta users' rows (the changed_sim expansion
  // below), and both rows of every changed pair (the store fold and the
  // re-finish reads). Pinned tiles cannot be evicted mid-patch; the budget
  // is re-enforced once the pins drop after the index swap. ----
  std::vector<size_t> pinned_tiles;
  std::vector<uint8_t> pin_mark;
  TileResidencyStats residency_before;
  const auto pin_user_tile = [&](UserId u) -> Status {
    const size_t t = residency_->TileOfUser(u);
    if (pin_mark[t] != 0) return Status::OK();
    pin_mark[t] = 1;
    FAIRREC_RETURN_NOT_OK(residency_->Pin(t));
    pinned_tiles.push_back(t);
    return Status::OK();
  };
  if (residency_ != nullptr) {
    residency_before = residency_->stats();
    pin_mark.assign(store_->num_tiles(), 0);
    for (const PairMomentsDelta& d : moment_deltas) {
      FAIRREC_RETURN_NOT_OK(pin_user_tile(d.a));
      FAIRREC_RETURN_NOT_OK(pin_user_tile(d.b));
    }
    for (const UserId u : delta_users) {
      FAIRREC_RETURN_NOT_OK(pin_user_tile(u));
    }
  }

  // ---- 3. The pairs whose similarity must be re-finished, gathered
  // *before* the fold (erased pairs must still reach their rows as
  // removals). Under global means a delta user's µ_u moved, so every stored
  // pair of that user re-finishes; under intersection means only changed
  // moments matter. ----
  std::vector<uint64_t> changed_sim;
  changed_sim.reserve(moment_deltas.size());
  for (const PairMomentsDelta& d : moment_deltas) {
    const PairMoments* existing = store_->FindPair(d.a, d.b);
    if (existing != nullptr && existing->n + d.delta.n == 0) {
      ++stats.erased_pairs;
    }
    changed_sim.push_back(PairKey(d.a, d.b));
  }
  if (!options_.similarity.intersection_means) {
    for (const UserId u : delta_users) {
      for (const MomentEntry& entry : store_->RowOf(u)) {
        changed_sim.push_back(u < entry.other ? PairKey(u, entry.other)
                                              : PairKey(entry.other, u));
      }
    }
  }
  std::sort(changed_sim.begin(), changed_sim.end());
  changed_sim.erase(std::unique(changed_sim.begin(), changed_sim.end()),
                    changed_sim.end());
  if (residency_ != nullptr) {
    // The re-finish also reads the *partner* rows of changed pairs (their
    // peer lists absorb the new similarities, and capped partners may
    // rebuild in full from their store row): pin those tiles too.
    for (const uint64_t key : changed_sim) {
      FAIRREC_RETURN_NOT_OK(pin_user_tile(KeyA(key)));
      FAIRREC_RETURN_NOT_OK(pin_user_tile(KeyB(key)));
    }
  }

  // ---- 4. Fold the moment deltas and swap in the new corpus. ----
  store_->ApplyPairDeltas(moment_deltas);
  if (residency_ != nullptr) {
    // The fold rewrote rows in both tiles of every changed pair: their
    // spill blobs (if any) predate the fold and must never be restored.
    for (const PairMomentsDelta& d : moment_deltas) {
      residency_->NoteTileDirty(residency_->TileOfUser(d.a));
      residency_->NoteTileDirty(residency_->TileOfUser(d.b));
    }
  }
  // A fresh shared_ptr, not assignment through the old one: holders of the
  // previous matrix_snapshot() keep their generation.
  matrix_ = std::make_shared<const RatingMatrix>(std::move(new_matrix));
  const PairwiseSimilarityEngine engine(matrix_.get(), options_.similarity,
                                        options_.engine);

  // ---- 5. Re-finish the changed pairs through the full build's finish:
  // stage into the batched FinishPearsonBatch kernel the tile sweep drains
  // through, with erased and guarded (SkipsFinish) pairs short-circuiting
  // to the literal 0 the kernel's mask pass would produce. ----
  std::vector<RowChange> row_changes;
  row_changes.reserve(changed_sim.size() * 2);
  {
    struct PairRef {
      UserId a, b;
    };
    auto stream = MakePearsonFinishStream<PairRef>(
        engine.options(), [&row_changes](PairRef pair, double sim) {
          row_changes.push_back({pair.a, pair.b, sim});
          row_changes.push_back({pair.b, pair.a, sim});
        });
    for (const uint64_t key : changed_sim) {
      const UserId a = KeyA(key);
      const UserId b = KeyB(key);
      const PairMoments* moments = store_->FindPair(a, b);
      if (moments == nullptr || engine.SkipsFinish(*moments)) {
        row_changes.push_back({a, b, 0.0});
        row_changes.push_back({b, a, 0.0});
        continue;
      }
      stream.Stage(*moments, matrix_->UserMean(a), matrix_->UserMean(b),
                   {a, b});
    }
  }  // stream destruction flushes the tail
  stats.refinished_pairs = static_cast<int64_t>(changed_sim.size());
  std::sort(row_changes.begin(), row_changes.end(),
            [](const RowChange& x, const RowChange& y) {
              return x.row != y.row ? x.row < y.row : x.other < y.other;
            });

  // ---- 6. Partition affected rows: delta users rebuild from the store
  // (their whole row moved); capped rows that lost or demoted an entry
  // rebuild too (the stored top-k cannot name the next-best candidate);
  // everything else takes an O(k) entry edit. ----
  const std::shared_ptr<const PeerIndex> base = index_;
  const int32_t cap = options_.peers.max_peers_per_user;
  const double threshold = options_.peers.delta;

  struct RowTask {
    UserId row = kInvalidUserId;
    size_t first = 0;
    size_t last = 0;
    bool full_refinish = false;
  };
  std::vector<RowTask> tasks;
  for (size_t first = 0; first < row_changes.size();) {
    size_t last = first;
    while (last < row_changes.size() &&
           row_changes[last].row == row_changes[first].row) {
      ++last;
    }
    const UserId v = row_changes[first].row;
    bool full_refinish = in_delta[static_cast<size_t>(v)] != 0;
    if (!full_refinish && cap > 0) {
      const auto old_row = base->PeersOf(v);
      if (old_row.size() == static_cast<size_t>(cap)) {
        for (size_t k = first; k < last && !full_refinish; ++k) {
          for (const Peer& entry : old_row) {
            if (entry.user != row_changes[k].other) continue;
            const Peer updated{row_changes[k].other, row_changes[k].sim};
            // A removal or demotion opens a slot the evicted candidates
            // would compete for — only the store row knows who wins.
            if (row_changes[k].sim < threshold || BetterPeer(entry, updated)) {
              full_refinish = true;
            }
            break;
          }
        }
      }
    }
    tasks.push_back({v, first, last, full_refinish});
    first = last;
  }

  // ---- 7. Build the replacement rows (rows are independent; the result
  // does not depend on scheduling). ----
  std::vector<std::vector<Peer>> new_rows(tasks.size());
  std::vector<uint8_t> replace(tasks.size(), 0);
  ThreadPool pool(options_.engine.num_threads);
  pool.ParallelFor(tasks.size(), [&](size_t t) {
    const RowTask& task = tasks[t];
    if (task.full_refinish) {
      new_rows[t] = RefinishRow(engine, task.row);
      replace[t] = 1;
      return;
    }
    const auto old_row = base->PeersOf(task.row);
    const bool was_full =
        cap > 0 && old_row.size() == static_cast<size_t>(cap);
    const auto changed_entry = [&](UserId user) -> const RowChange* {
      for (size_t k = task.first; k < task.last; ++k) {
        if (row_changes[k].other == user) return &row_changes[k];
      }
      return nullptr;
    };

    std::vector<Peer> row;
    row.reserve(old_row.size() + (task.last - task.first));
    for (const Peer& entry : old_row) {
      if (changed_entry(entry.user) == nullptr) row.push_back(entry);
    }
    for (size_t k = task.first; k < task.last; ++k) {
      const Peer candidate{row_changes[k].other, row_changes[k].sim};
      if (candidate.similarity < threshold) continue;  // removed / never in
      // A full row only admits new candidates that beat its worst kept
      // peer: anything else lost to the cap before the delta and still
      // loses now (insertions can only raise the cap-th best). Demotions
      // never reach this path — they force a full re-finish above.
      if (was_full && !BetterPeer(candidate, old_row.back()) &&
          std::find_if(old_row.begin(), old_row.end(), [&](const Peer& p) {
            return p.user == candidate.user;
          }) == old_row.end()) {
        continue;
      }
      row.push_back(candidate);
    }
    std::sort(row.begin(), row.end(), BetterPeer);
    if (cap > 0 && row.size() > static_cast<size_t>(cap)) {
      row.resize(static_cast<size_t>(cap));
    }
    const bool unchanged =
        row.size() == old_row.size() &&
        std::equal(row.begin(), row.end(), old_row.begin());
    if (!unchanged) {
      new_rows[t] = std::move(row);
      replace[t] = 1;
    }
  });

  // ---- 8. Splice and swap the served index. ----
  PeerIndex::PatchBuilder patch(base.get(), matrix_->num_users());
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (replace[t] == 0) continue;
    patch.ReplaceRow(tasks[t].row, std::move(new_rows[t]));
    if (tasks[t].full_refinish) {
      ++stats.rows_refinished;
    } else {
      ++stats.rows_patched;
    }
  }
  index_ = std::make_shared<const PeerIndex>(std::move(patch).Build());

  // ---- 9. Drop the pins, re-enforce the budget, and report the apply's
  // residency traffic. ----
  if (residency_ != nullptr) {
    for (const size_t t : pinned_tiles) residency_->Unpin(t);
    FAIRREC_RETURN_NOT_OK(residency_->EnforceBudget());
    const TileResidencyStats& after = residency_->stats();
    stats.tile_restores = after.restores - residency_before.restores;
    stats.tile_spills = after.evictions - residency_before.evictions;
    stats.spill_bytes_written =
        after.spill_bytes_written - residency_before.spill_bytes_written;
    stats.resident_bytes = store_->ResidentBytes();
  }

  // Close the calibration loop: this patch's wall time, normalized by the
  // planner units it was predicted with, feeds the next decision.
  if (options_.calibrate_planner && options_.rebuild_fallback_ratio > 0.0) {
    cost_model_.ObservePatch(touched_mass, SecondsSince(patch_start));
  }
  return stats;
}

}  // namespace fairrec
