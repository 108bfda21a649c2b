#ifndef FAIRREC_MAPREDUCE_JOBS_H_
#define FAIRREC_MAPREDUCE_JOBS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/aggregation.h"
#include "mapreduce/engine.h"
#include "ratings/types.h"
#include "sim/moment_shuffle.h"
#include "sim/moment_store.h"
#include "sim/pearson_finish.h"
#include "sim/peer_index.h"
#include "sim/rating_similarity.h"

namespace fairrec {

/// Key for the user-pair similarity records: (group member, outside user).
using UserPairKey = std::pair<UserId, UserId>;

/// The two outputs of Job 1 (Fig. 2): the candidate item stream (items that
/// no group member has rated, with their full rater lists) and the partial
/// sufficient-statistics stream for (member, outside-user) pairs.
///
/// The moment stream replaces the retired `PartialSimilarity` record stream
/// (one tagged rating pair per co-rated item, re-sorted per pair in Job 2):
/// each record now carries the six additive sufficient statistics
/// (n, Σa, Σb, Σa², Σb², Σab) of one pair's co-ratings within one item
/// shard, pre-combined map-side exactly like a Hadoop combiner would on the
/// node owning that shard. Job 2 just sums moments per pair and finishes —
/// the shuffle ships O(pairs · shards) fixed-size records instead of
/// O(co-ratings) rating pairs.
struct Job1Output {
  std::vector<KeyValue<ItemId, std::vector<UserRating>>> candidate_items;
  /// Per-(pair, item-shard) partial moments, sorted by pair with each pair's
  /// shard partials in ascending shard order (and each shard's co-ratings
  /// folded in ascending item order — the engine's accumulation order, so
  /// one shard reproduces the in-memory sweep bit-for-bit).
  std::vector<KeyValue<UserPairKey, PairMoments>> partial_moments;
  MapReduceStats stats;
  /// Size of the retired per-co-rating stream this run folded away: how many
  /// (pair, item) rating-pair records the old Job 1 would have shipped to
  /// Job 2. co_rating_records / partial_moments.size() is the shuffle
  /// compression the moment refactor buys.
  int64_t co_rating_records = 0;
};

/// Job 0 (supporting job, not drawn in Fig. 2): per-user mean ratings — the
/// µ_u of Eq. 2. Hadoop deployments ship these to Job 2 via the distributed
/// cache; here they are returned densely indexed by user id (0.0 for users
/// with no ratings).
std::vector<double> RunUserMeanJob(const std::vector<RatingTriple>& ratings,
                                   int32_t num_users,
                                   const MapReduceOptions& options = {},
                                   MapReduceStats* stats = nullptr);

/// Job 1 — "Find partial users similarity score and the unrated items".
/// Map:    (u, i, rating) -> key i, value (u, rating).
/// Reduce: if no group member rated i, emit i into the candidate stream;
///         otherwise fold one co-rating into the (member, non-member)
///         pair's sufficient statistics for i's shard.
///
/// `num_moment_shards` simulates multi-node sharding in-process: shard s
/// owns the items with i % num_moment_shards == s, and each shard's
/// co-rating contributions are pre-combined into one PairMoments per local
/// pair before the Job 1 / Job 2 boundary (a map-side combine). 1 — the
/// single-node layout — yields exactly one moment record per co-rating pair,
/// accumulated in the same ascending-item order as the in-memory engine's
/// tile sweep. On integer rating scales every sharding finishes to
/// bit-identical similarities (moments are exact); on non-representable
/// rating values shards > 1 can differ from the engine by reassociation
/// rounding (~1e-15).
Result<Job1Output> RunJob1(const std::vector<RatingTriple>& ratings,
                           const Group& group, int32_t num_users,
                           const MapReduceOptions& options = {},
                           int32_t num_moment_shards = 1);

/// Job 1 output in the memory-bounded shuffle layout: the candidate stream
/// is materialized as usual, but the moment records live inside a
/// PairMomentShuffle — buffered up to its byte budget, spilled to sorted
/// run files beyond it — instead of the in-memory partial_moments vector.
/// Job 2 consumes it with the shuffle overload of RunJob2PeerIndex, which
/// k-way-merges the runs back into the exact global (pair, shard, item)
/// order the unspilled sort produces.
struct Job1SpilledOutput {
  std::vector<KeyValue<ItemId, std::vector<UserRating>>> candidate_items;
  /// The undrained shuffle holding every per-co-rating moment record. Pass
  /// it to RunJob2PeerIndex; read stats() afterwards for spill accounting.
  PairMomentShuffle moments;
  MapReduceStats stats;
  /// Records offered to the shuffle — the same per-co-rating count
  /// Job1Output::co_rating_records reports.
  int64_t co_rating_records = 0;
};

/// RunJob1 under a shuffle byte budget: identical map and reduce logic, but
/// each (member, outside-user, shard, item) moment contribution goes
/// straight into a PairMomentShuffle configured by `shuffle_options`.
/// Records are never pre-combined inside a run: reducer emission order
/// follows partition scheduling, not items, so only the drain's global
/// sort fixes the fold order. The per-(pair, shard) groups the shuffle's
/// Drain later delivers are bit-identical to Job1Output::partial_moments at
/// every budget, including 0 (unbounded buffer, no temp files).
Result<Job1SpilledOutput> RunJob1Spilled(
    const std::vector<RatingTriple>& ratings, const Group& group,
    int32_t num_users, const MomentShuffleOptions& shuffle_options,
    const MapReduceOptions& options = {}, int32_t num_moment_shards = 1);

/// Job 2 — "Calculate simU". Merges each pair's per-shard moments (they
/// arrive grouped and in shard order), finishes Eq. 2 through the engine's
/// FinishPearsonFromMoments under `sim_options` (using `user_means` for the
/// global-mean variant), and keeps pairs with simU >= delta (Def. 1's
/// threshold). No per-pair buffering or re-sort: the reduce is one additive
/// merge plus one finish per pair. Orientation is canonicalized to
/// (min id, max id) before finishing so the value is bit-identical to the
/// engine's, which always accumulates with a < b.
std::vector<KeyValue<UserPairKey, double>> RunJob2(
    const std::vector<KeyValue<UserPairKey, PairMoments>>& partial_moments,
    const std::vector<double>& user_means,
    const RatingSimilarityOptions& sim_options, double delta,
    const MapReduceOptions& options = {}, MapReduceStats* stats = nullptr);

/// Job 2, peer-list output mode: finishes simU exactly like RunJob2 but the
/// reducers feed qualifying pairs straight into a thread-safe
/// PeerIndex::Builder — no thresholded record stream is materialized — and
/// the result is the same sparse CSR artifact the in-memory path gets from
/// PairwiseSimilarityEngine::BuildPeerIndex. Only (member -> outside-user)
/// edges exist in the Job 1 moment stream, so non-member rows are empty.
/// max_peers_per_member bounds each member's list (0 = unlimited; bounded
/// lists trade exact Def. 1 semantics for O(|G| * k) output, see
/// PeerIndexOptions). stats->output_records reports the stored entry count.
Result<PeerIndex> RunJob2PeerIndex(
    const std::vector<KeyValue<UserPairKey, PairMoments>>& partial_moments,
    const std::vector<double>& user_means,
    const RatingSimilarityOptions& sim_options, double delta,
    int32_t num_users, int32_t max_peers_per_member = 0,
    const MapReduceOptions& options = {}, MapReduceStats* stats = nullptr);

/// Job 2 over a RunJob1Spilled boundary: a k-way merge-reduce. Drains the
/// shuffle (merging its sorted runs), sums each pair's per-shard groups in
/// the ascending shard order the merge delivers — the same association the
/// vector overload's reducers use — and finishes through the identical
/// batched kernel into the same PeerIndex artifact. Because the shuffle's
/// merge reproduces the unspilled sort's global record order bit-for-bit,
/// the returned index is byte-identical to the vector overload's at every
/// (shard layout x budget) combination. The shuffle is spent afterwards;
/// its stats() survive for spill accounting. `stats`, when non-null, gets
/// input_records = shuffle records, intermediate_records = merged
/// (pair, shard) groups, output_records = stored index entries.
Result<PeerIndex> RunJob2PeerIndex(PairMomentShuffle& moments,
                                   const std::vector<double>& user_means,
                                   const RatingSimilarityOptions& sim_options,
                                   double delta, int32_t num_users,
                                   int32_t max_peers_per_member = 0,
                                   MapReduceStats* stats = nullptr);

/// Folds the Job 1 moment stream into the persistent MomentStore the
/// incremental peer-graph maintenance subsystem consumes
/// (sim/incremental_peer_graph.h): per-shard partials of each pair are
/// merged in their canonical ascending-shard order (exactly as the Job 2
/// reducers sum them) and stored in the canonical (min id, max id)
/// orientation the in-memory engine accumulates. On integer rating scales
/// the stored statistics are bit-identical to
/// PairwiseSimilarityEngine::BuildMomentStore restricted to the
/// (member, outside-user) pairs the Job 1 stream covers — so a MapReduce
/// deployment can seed the incremental subsystem without an in-memory
/// re-sweep. `num_users` sizes the store's population.
Result<MomentStore> BuildMomentStoreFromPartialMoments(
    const std::vector<KeyValue<UserPairKey, PairMoments>>& partial_moments,
    int32_t num_users, const MomentStoreOptions& store_options = {});

/// Relevance scores of one candidate item for the group (Job 3 output).
struct GroupItemRelevance {
  /// relevance(u, i) per member, aligned with the group order; NaN when
  /// undefined (no peer of that member rated the item).
  std::vector<double> member_relevance;
  /// relevanceG(G, i) (Def. 2) over the defined member scores.
  double group_relevance = 0.0;
  /// True iff every member's relevance is defined.
  bool defined_for_all = false;
};

/// Job 3 — "Calculate user and group relevance".
/// Input:  the candidate stream of Job 1.
/// Side:   the thresholded similarities of Job 2 (the peer sets of Def. 1),
///         the group, and the aggregation design.
/// Reduce: per item, Eq. 1 per member plus the group aggregate. Items where
///         no member has a defined estimate are dropped; items partially
///         defined are kept (callers apply their require_all policy).
std::vector<KeyValue<ItemId, GroupItemRelevance>> RunJob3(
    const std::vector<KeyValue<ItemId, std::vector<UserRating>>>& candidates,
    const std::vector<KeyValue<UserPairKey, double>>& similarities,
    const Group& group, AggregationKind aggregation,
    const MapReduceOptions& options = {}, MapReduceStats* stats = nullptr);

/// Job 3 over the peer-list artifact: each member's peer set comes from
/// `peers.PeersOf(member)` (already thresholded and in the canonical
/// descending-similarity order).
std::vector<KeyValue<ItemId, GroupItemRelevance>> RunJob3(
    const std::vector<KeyValue<ItemId, std::vector<UserRating>>>& candidates,
    const PeerProvider& peers, const Group& group, AggregationKind aggregation,
    const MapReduceOptions& options = {}, MapReduceStats* stats = nullptr);

}  // namespace fairrec

#endif  // FAIRREC_MAPREDUCE_JOBS_H_
