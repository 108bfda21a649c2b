#ifndef FAIRREC_SIM_INCREMENTAL_PEER_GRAPH_H_
#define FAIRREC_SIM_INCREMENTAL_PEER_GRAPH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "ratings/rating_delta.h"
#include "ratings/rating_matrix.h"
#include "sim/cost_model.h"
#include "sim/moment_store.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_index.h"
#include "sim/rating_similarity.h"
#include "sim/tile_residency.h"

namespace fairrec {

/// Configuration of the incremental peer-graph maintenance subsystem.
struct IncrementalPeerGraphOptions {
  /// Similarity semantics (Eq. 2 variant, min_overlap, ...) shared by the
  /// seeding sweep and every incremental re-finish.
  RatingSimilarityOptions similarity;
  /// Sweep tuning for the seeding full build.
  PairwiseEngineOptions engine;
  /// Def. 1 threshold and per-user cap of the maintained index. delta must
  /// be positive: with delta <= 0 every pair — co-rated or not — qualifies,
  /// and a graph dense in no-evidence pairs has no sparse incremental form.
  PeerIndexOptions peers;
  /// Spill/accounting granularity of the persistent moment store.
  MomentStoreOptions store;

  // --- Memory-budgeted residency (sim/tile_residency.h). ---

  /// Byte budget over the moment store's resident tiles. 0 (the default)
  /// keeps the whole store in memory, exactly as before budgets existed.
  /// With a budget, ApplyDelta pins the tiles its touched rows live in,
  /// faults spilled ones back from disk, and re-enforces the budget after
  /// the patch — so a corpus whose pair moments exceed RAM still maintains
  /// its peer graph incrementally. Note the seeding Build still sweeps the
  /// dense engine path; to *build* beyond RAM, seed via
  /// BuildMomentStoreOutOfCore + FromArtifacts.
  size_t store_budget_bytes = 0;
  /// Directory for spilled tile blobs. Required when store_budget_bytes > 0.
  std::string store_spill_dir;

  // --- Batch-size-aware delta planning. ---
  // Past some touched fraction of the item universe a from-scratch engine
  // sweep beats patching (the patch path pays hash-map folds, store merges,
  // and row splices per touched pair; the sweep pays ~one fused
  // multiply-add per co-rating). ApplyDelta estimates both costs from the
  // batch shape and falls back to a full rebuild past the crossover; the
  // decision and both estimates surface in DeltaApplyStats.

  /// Relative cost of touching one (changed cell, column rater) pair on the
  /// patch path versus sweeping one co-rating in a full rebuild. Hand-fit on
  /// the 10k-user/2k-item/1% bench shape (measured crossover around half
  /// the item universe touched) — but only the *cold-start prior*: the
  /// subsystem re-calibrates it from the wall time of its own patches and
  /// rebuilds (see sim/cost_model.h), so the planner's crossover tracks the
  /// actual machine. Set calibrate_planner = false to pin this value.
  double patch_pair_cost = 150.0;
  /// Feed observed patch/rebuild timings into the cost model and plan with
  /// the calibrated exchange rate. Off, the hand-fit patch_pair_cost is
  /// used verbatim (deterministic planning for tests and benches).
  bool calibrate_planner = true;
  /// Fall back to a full rebuild when
  /// estimated_patch_cost > rebuild_fallback_ratio * estimated_rebuild_cost.
  /// <= 0 disables planning (always patch).
  double rebuild_fallback_ratio = 1.0;
  /// Planning engages only when the estimated rebuild cost exceeds this
  /// floor. Below it a rebuild completes in microseconds and the patch
  /// path's correctness coverage (unit-scale corpora, the parity suites)
  /// matters more than the planner's choice.
  double planner_min_rebuild_cost = 1.0e6;
};

/// Counters of one ApplyDelta, for observability and the incremental bench.
struct DeltaApplyStats {
  /// Upserts in the batch after last-wins dedup.
  int64_t num_upserts = 0;
  /// Distinct item columns the delta sweep re-read.
  int64_t touched_items = 0;
  /// Pairs whose sufficient statistics changed (moment-store folds).
  int64_t changed_pairs = 0;
  /// Pairs erased from the store (overlap count returned to zero).
  int64_t erased_pairs = 0;
  /// Pairs re-finished through Eq. 2 (changed moments, plus — under global
  /// means — every stored pair of a delta user, whose µ_u moved).
  int64_t refinished_pairs = 0;
  /// Rows rebuilt in full from the moment store (delta users, and capped
  /// rows where an entry was demoted or evicted so the stored top-k no
  /// longer determines the next-best candidate).
  int64_t rows_refinished = 0;
  /// Rows patched at entry level (insert / replace / remove against the
  /// stored list, no store row scan).
  int64_t rows_patched = 0;
  /// The planner's cost estimates for this batch: touched-item column mass
  /// times patch_pair_cost, versus total co-rating accumulation plus the
  /// vectorized finish pass of a from-scratch sweep. Unitless relative
  /// work, comparable only to each other; both stay 0 when planning is
  /// disabled (rebuild_fallback_ratio <= 0 skips the estimate scan).
  double estimated_patch_cost = 0.0;
  double estimated_rebuild_cost = 0.0;
  /// The patch_pair_cost the planner actually multiplied by this batch: the
  /// cost model's calibrated exchange rate once both a patch and a rebuild
  /// have been timed, the configured prior before that (0 when planning is
  /// disabled).
  double patch_pair_cost_used = 0.0;
  /// True when the planner chose a from-scratch Build over patching (the
  /// patch counters above are then all zero; the rebuilt artifacts are the
  /// parity reference itself).
  bool used_full_rebuild = false;

  // --- Residency traffic of a budgeted apply (store_budget_bytes > 0;
  // all zero when unbounded). ---

  /// Tiles faulted in from spill blobs for this batch's touched rows.
  int64_t tile_restores = 0;
  /// Tiles evicted re-enforcing the budget after the patch.
  int64_t tile_spills = 0;
  /// Spill blob bytes written during this apply.
  uint64_t spill_bytes_written = 0;
  /// The store's resident bytes after the apply (post-enforcement).
  size_t resident_bytes = 0;
};

/// Incremental maintenance of the Def. 1 peer graph under continuously
/// arriving ratings.
///
/// The static pipeline (PairwiseSimilarityEngine::BuildPeerIndex) re-sweeps
/// every co-rating on any change. This subsystem keeps, alongside the served
/// PeerIndex, the persistent per-pair sufficient statistics (MomentStore)
/// that the index was finished from. A RatingDelta batch then costs work
/// proportional to the change, not the corpus:
///
///   0. the batch-size-aware planner estimates the patch cost (touched-item
///      column mass x patch_pair_cost) against a from-scratch sweep and
///      falls back to a full rebuild past the crossover (see the planning
///      fields of IncrementalPeerGraphOptions; the decision is reported in
///      DeltaApplyStats::used_full_rebuild). The steps below are the patch
///      path;
///   1. the base RatingMatrix absorbs the upserts in O(ratings + batch)
///      (RatingDelta::ApplyTo — no global re-sort);
///   2. only the item columns the batch touched are re-swept, pairing each
///      changed rating against the column's raters to produce additive
///      PairMoments deltas (updated ratings Remove the superseded co-rating
///      and Add the new one);
///   3. the deltas fold into the MomentStore (pairs whose overlap drops to
///      zero are erased);
///   4. affected pairs are re-finished through the engine's FinishPair — the
///      byte-identical finish path of the full build. Under the paper's
///      global-means Eq. 2 a delta user's µ_u moves, so *all* of that user's
///      stored pairs re-finish; under intersection means only pairs with
///      changed moments do;
///   5. affected rows are patched: delta users (and capped rows where an
///      entry was demoted or evicted — the stored top-k cannot reveal the
///      next-best candidate, the store row can) are rebuilt in full from
///      their MomentStore row; every other affected row takes an O(k)
///      entry-level edit. PeerIndex::PatchBuilder splices the new rows into
///      a fresh CSR without re-finishing untouched users;
///   6. the served index is swapped: index() hands out a
///      shared_ptr<const PeerIndex>, so in-flight readers (a Recommender
///      holds a PeerProvider pointer) keep the snapshot they started with
///      and new queries see the refreshed graph.
///
/// Parity contract: after any sequence of ApplyDelta calls, index() is
/// byte-identical to PairwiseSimilarityEngine::BuildPeerIndex run from
/// scratch on the post-delta corpus — same pairs, same similarities, same
/// order — on integer rating scales (where the additive moments are exact;
/// tests/sim/incremental_peer_graph_test.cc asserts this for every delta
/// shape). On non-representable rating values the two can differ by
/// reassociation rounding, the same ~1e-15 caveat the sharded MapReduce
/// flow documents.
///
/// Thread-compatibility: ApplyDelta is exclusive; PeersOf on a snapshot is
/// freely concurrent with it (snapshots are immutable).
class IncrementalPeerGraph {
 public:
  /// Seeds the subsystem with one full sweep: the moment store and the
  /// initial peer index. `matrix` is taken by value (the subsystem owns the
  /// evolving corpus).
  static Result<IncrementalPeerGraph> Build(
      RatingMatrix matrix, IncrementalPeerGraphOptions options);

  /// Assembles the subsystem from already-built artifacts without any
  /// sweep — the recovery path of sim/durable_peer_graph.h, which loads the
  /// three from a checkpoint. The artifacts must be mutually consistent
  /// (same population; the store and index derived from this matrix under
  /// these options) — population mismatches are rejected, deeper
  /// inconsistencies are the caller's contract.
  static Result<IncrementalPeerGraph> FromArtifacts(
      RatingMatrix matrix, MomentStore store, PeerIndex index,
      IncrementalPeerGraphOptions options);

  IncrementalPeerGraph(IncrementalPeerGraph&&) = default;
  IncrementalPeerGraph& operator=(IncrementalPeerGraph&&) = default;

  /// Folds one batch of rating arrivals into the corpus, the moment store,
  /// and the served index. Returns the patch accounting, or InvalidArgument
  /// when the batch is malformed.
  Result<DeltaApplyStats> ApplyDelta(const RatingDelta& delta);

  /// The served peer graph. The snapshot is immutable; ApplyDelta replaces
  /// the pointer, so long-lived readers re-fetch per query (or keep their
  /// snapshot for a consistent view).
  std::shared_ptr<const PeerIndex> index() const { return index_; }

  /// The evolving corpus. The reference tracks the latest generation: after
  /// the next ApplyDelta it names a *different* matrix. Callers that must
  /// not observe a swap mid-query hold matrix_snapshot() instead.
  const RatingMatrix& matrix() const { return *matrix_; }

  /// The corpus as an immutable snapshot, paired with index(): ApplyDelta
  /// never mutates a published matrix in place — it builds the merged corpus
  /// and swaps the pointer — so a holder keeps a self-consistent generation
  /// for as long as it keeps the pointer. This is what the serving layer's
  /// ServingSnapshot is assembled from (serve/snapshot_source.h).
  ///
  /// Note the accessor itself is unsynchronized, like index(): callers that
  /// read while another thread is inside ApplyDelta must order the two
  /// (the serving layer publishes under its own lock).
  std::shared_ptr<const RatingMatrix> matrix_snapshot() const {
    return matrix_;
  }

  /// The persistent sufficient-statistics store backing the patches. Under
  /// a residency budget, spilled tiles are not readable until
  /// EnsureStoreResident (whole-store consumers) or the next ApplyDelta
  /// pins them (row consumers).
  const MomentStore& store() const { return *store_; }

  /// The residency manager enforcing options().store_budget_bytes, or null
  /// when unbounded.
  const TileResidencyManager* residency() const { return residency_.get(); }

  /// Restores every spilled tile — the precondition of whole-store reads
  /// (checkpoint serialization, operator== against a reference store).
  /// The budget is re-enforced by the next ApplyDelta. No-op when
  /// unbounded.
  Status EnsureStoreResident();

  const IncrementalPeerGraphOptions& options() const { return options_; }

  /// The self-tuning planner calibration (see sim/cost_model.h). The
  /// mutable overload lets tests and harnesses inject deterministic
  /// observations instead of depending on wall-clock noise.
  const PatchCostModel& cost_model() const { return cost_model_; }
  PatchCostModel& cost_model() { return cost_model_; }

 private:
  IncrementalPeerGraph() = default;

  /// Rebuilds user `v`'s full peer list from its MomentStore row, finishing
  /// the stored moments through the batched kernel.
  std::vector<Peer> RefinishRow(const PairwiseSimilarityEngine& engine,
                                UserId v) const;

  /// The planner's fallback: swaps in `new_matrix` and rebuilds the moment
  /// store and peer index with a from-scratch engine sweep.
  Status RebuildFromScratch(RatingMatrix new_matrix);

  /// The planner's rebuild-cost estimate for the current corpus: co-rating
  /// mass plus the finish-pass term (also the unit count rebuild timings
  /// are normalized by).
  double RebuildCostUnits() const;

  /// Creates the residency manager when a budget is configured (store_ must
  /// already hold the final store) and brings residency under the budget.
  Status AttachResidency();

  IncrementalPeerGraphOptions options_;
  PatchCostModel cost_model_;
  // shared_ptr, const payload: the address is stable across moves of the
  // graph (PairwiseSimilarityEngine instances hold a pointer to it during a
  // call), and each generation is immutable once published — ApplyDelta
  // swaps in the merged corpus instead of assigning through the pointer, so
  // matrix_snapshot() holders never see a matrix change under them.
  std::shared_ptr<const RatingMatrix> matrix_;
  // unique_ptr for the same address stability: the residency manager holds
  // a pointer to the store across moves of the graph.
  std::unique_ptr<MomentStore> store_;
  std::unique_ptr<TileResidencyManager> residency_;
  std::shared_ptr<const PeerIndex> index_;
};

}  // namespace fairrec

#endif  // FAIRREC_SIM_INCREMENTAL_PEER_GRAPH_H_
