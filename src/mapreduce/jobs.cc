#include "mapreduce/jobs.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <variant>

#include "cf/peer_finder.h"
#include "common/logging.h"
#include "sim/pearson_finish_batch.h"

namespace fairrec {

namespace {

constexpr double kUndefined = std::numeric_limits<double>::quiet_NaN();

/// One co-rated item's sufficient-statistics contribution, tagged with the
/// item so the Job 1 boundary can fold shards in the canonical ascending-item
/// order. Internal to Job 1: the tag is dropped once the shard is combined.
struct ItemMoment {
  ItemId item = kInvalidItemId;
  PairMoments moments;
};

/// Batched finish over a merged (pair, moments) stream — the Job 2 finish,
/// routed through the same vectorized kernel as the engine's tile drain
/// (sim/pearson_finish_batch.h), so all four similarity flows share one
/// finish implementation with one bit-parity contract. Job 1 accumulates
/// with a = member, but the engine always accumulates with a < b, so each
/// pair's moments are canonicalized to ascending ids before staging —
/// Pearson is symmetric in exact arithmetic, not bit-for-bit in floating
/// point, and the sharded path must match the in-memory artifact exactly.
/// Pairs failing the overlap guard short-circuit to the literal 0 the
/// kernel's mask pass would produce. `consume(key, sim)` is called once per
/// input record, in batch-flush order (not stream order).
template <typename Consume>
void FinishMergedPairs(
    const std::vector<KeyValue<UserPairKey, PairMoments>>& merged,
    const std::vector<double>& user_means,
    const RatingSimilarityOptions& options, const Consume& consume) {
  const auto mean_of = [&user_means](UserId u) {
    return (u >= 0 && static_cast<size_t>(u) < user_means.size())
               ? user_means[static_cast<size_t>(u)]
               : 0.0;
  };
  auto stream = MakePearsonFinishStream<const UserPairKey*>(
      options, [&consume](const UserPairKey* key, double sim) {
        consume(*key, sim);
      });
  for (const auto& kv : merged) {
    if (PearsonOverlapGuardFails(kv.value.n, options)) {
      consume(kv.key, 0.0);
      continue;
    }
    if (kv.key.first <= kv.key.second) {
      stream.Stage(kv.value, mean_of(kv.key.first), mean_of(kv.key.second),
                   &kv.key);
    } else {
      stream.Stage(kv.value.Swapped(), mean_of(kv.key.second),
                   mean_of(kv.key.first), &kv.key);
    }
  }
  // Falling off the scope flushes the stream's ragged tail.
}

/// The merge-only Job 2 reduce shared by both output modes: sums each
/// pair's per-shard moments in the canonical ascending-shard order the
/// stable shuffle preserves from the Job 1 boundary sort, and emits the
/// merged statistics. The finish happens downstream in one batched pass.
std::vector<KeyValue<UserPairKey, PairMoments>> MergeJob2Moments(
    const std::vector<KeyValue<UserPairKey, PairMoments>>& partial_moments,
    const MapReduceOptions& options, MapReduceStats* stats) {
  return RunMapReduce<UserPairKey, PairMoments, UserPairKey, PairMoments,
                      UserPairKey, PairMoments, PairHash>(
      partial_moments,
      // Map: identity re-key (the pair key is already in place).
      [](const UserPairKey& key, const PairMoments& value,
         MapEmitter<UserPairKey, PairMoments, PairHash>& out) {
        out.Emit(key, value);
      },
      [](const UserPairKey& key, std::span<const PairMoments> values,
         ReduceEmitter<UserPairKey, PairMoments>& out) {
        PairMoments total;
        for (const PairMoments& partial : values) total.Merge(partial);
        out.Emit(key, total);
      },
      options, stats);
}

}  // namespace

std::vector<double> RunUserMeanJob(const std::vector<RatingTriple>& ratings,
                                   int32_t num_users,
                                   const MapReduceOptions& options,
                                   MapReduceStats* stats) {
  std::vector<KeyValue<int64_t, RatingTriple>> input;
  input.reserve(ratings.size());
  int64_t index = 0;
  for (const RatingTriple& t : ratings) input.push_back({index++, t});

  const auto output = RunMapReduce<int64_t, RatingTriple, UserId, Rating, UserId,
                                   double>(
      input,
      [](const int64_t&, const RatingTriple& t, MapEmitter<UserId, Rating>& out) {
        out.Emit(t.user, t.value);
      },
      [](const UserId& user, std::span<const Rating> values,
         ReduceEmitter<UserId, double>& out) {
        double sum = 0.0;
        for (const Rating r : values) sum += r;
        out.Emit(user, sum / static_cast<double>(values.size()));
      },
      options, stats);

  std::vector<double> means(static_cast<size_t>(num_users), 0.0);
  for (const auto& kv : output) {
    if (kv.key >= 0 && kv.key < num_users) means[static_cast<size_t>(kv.key)] = kv.value;
  }
  return means;
}

Result<Job1Output> RunJob1(const std::vector<RatingTriple>& ratings,
                           const Group& group, int32_t num_users,
                           const MapReduceOptions& options,
                           int32_t num_moment_shards) {
  if (group.empty()) {
    return Status::InvalidArgument("group must not be empty");
  }
  if (num_moment_shards < 1) {
    return Status::InvalidArgument("num_moment_shards must be >= 1");
  }
  std::vector<uint8_t> is_member(static_cast<size_t>(num_users), 0);
  for (const UserId u : group) {
    if (u < 0 || u >= num_users) {
      return Status::InvalidArgument("group member out of range: " +
                                     std::to_string(u));
    }
    is_member[static_cast<size_t>(u)] = 1;
  }

  std::vector<KeyValue<int64_t, RatingTriple>> input;
  input.reserve(ratings.size());
  int64_t index = 0;
  for (const RatingTriple& t : ratings) input.push_back({index++, t});

  // Reducer output is a tagged stream: candidates keyed by (-1, item),
  // single-item moment contributions keyed by (member, peer).
  using Job1Value = std::variant<std::vector<UserRating>, ItemMoment>;
  constexpr UserId kCandidateTag = -1;

  Job1Output result;
  const auto output = RunMapReduce<int64_t, RatingTriple, ItemId, UserRating,
                                   UserPairKey, Job1Value>(
      input,
      // Map: (u, i, rating) -> (i, (u, rating)).
      [](const int64_t&, const RatingTriple& t,
         MapEmitter<ItemId, UserRating>& out) {
        out.Emit(t.item, {t.user, t.value});
      },
      // Reduce per item: candidate stream, or one sufficient-statistics
      // contribution per (member, outside-user) rater pair of i.
      [&is_member, kCandidateTag](const ItemId& item,
                                  std::span<const UserRating> raters,
                                  ReduceEmitter<UserPairKey, Job1Value>& out) {
        bool any_member = false;
        for (const UserRating& r : raters) {
          if (is_member[static_cast<size_t>(r.user)] != 0) {
            any_member = true;
            break;
          }
        }
        if (!any_member) {
          out.Emit({kCandidateTag, item},
                   std::vector<UserRating>(raters.begin(), raters.end()));
          return;
        }
        for (const UserRating& member : raters) {
          if (is_member[static_cast<size_t>(member.user)] == 0) continue;
          for (const UserRating& peer : raters) {
            if (is_member[static_cast<size_t>(peer.user)] != 0) continue;
            ItemMoment contribution;
            contribution.item = item;
            contribution.moments.Add(member.value, peer.value);
            out.Emit({member.user, peer.user}, contribution);
          }
        }
      },
      options, &result.stats);

  std::vector<KeyValue<UserPairKey, ItemMoment>> raw;
  for (const auto& kv : output) {
    if (kv.key.first == kCandidateTag) {
      result.candidate_items.push_back(
          {kv.key.second, std::get<std::vector<UserRating>>(kv.value)});
    } else {
      raw.push_back({kv.key, std::get<ItemMoment>(kv.value)});
    }
  }
  result.co_rating_records = static_cast<int64_t>(raw.size());

  // Deterministic downstream consumption regardless of partition layout.
  std::sort(result.candidate_items.begin(), result.candidate_items.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });

  // Map-side combine, simulated per item shard: canonical (pair, shard,
  // item) order, then each (pair, shard) run folds into one PairMoments in
  // ascending item order — the exact accumulation order of the engine's
  // inverted-index sweep, so a single shard reproduces it bit-for-bit.
  const int32_t shards = num_moment_shards;
  const auto shard_of = [shards](ItemId item) {
    return static_cast<int32_t>(item % shards);
  };
  std::sort(raw.begin(), raw.end(),
            [&shard_of](const auto& a, const auto& b) {
              if (a.key != b.key) return a.key < b.key;
              const int32_t sa = shard_of(a.value.item);
              const int32_t sb = shard_of(b.value.item);
              if (sa != sb) return sa < sb;
              return a.value.item < b.value.item;
            });
  for (size_t i = 0; i < raw.size();) {
    const UserPairKey pair = raw[i].key;
    const int32_t shard = shard_of(raw[i].value.item);
    PairMoments combined = raw[i].value.moments;
    size_t j = i + 1;
    while (j < raw.size() && raw[j].key == pair &&
           shard_of(raw[j].value.item) == shard) {
      combined.Merge(raw[j].value.moments);
      ++j;
    }
    result.partial_moments.push_back({pair, combined});
    i = j;
  }
  return result;
}

Result<Job1SpilledOutput> RunJob1Spilled(
    const std::vector<RatingTriple>& ratings, const Group& group,
    int32_t num_users, const MomentShuffleOptions& shuffle_options,
    const MapReduceOptions& options, int32_t num_moment_shards) {
  if (group.empty()) {
    return Status::InvalidArgument("group must not be empty");
  }
  if (num_moment_shards < 1) {
    return Status::InvalidArgument("num_moment_shards must be >= 1");
  }
  std::vector<uint8_t> is_member(static_cast<size_t>(num_users), 0);
  for (const UserId u : group) {
    if (u < 0 || u >= num_users) {
      return Status::InvalidArgument("group member out of range: " +
                                     std::to_string(u));
    }
    is_member[static_cast<size_t>(u)] = 1;
  }

  // The shuffle owns the order (global sort on drain), so reducer emission
  // interleaving never reaches the artifact.
  FAIRREC_ASSIGN_OR_RETURN(PairMomentShuffle moments,
                           PairMomentShuffle::Create(shuffle_options));

  std::vector<KeyValue<int64_t, RatingTriple>> input;
  input.reserve(ratings.size());
  int64_t index = 0;
  for (const RatingTriple& t : ratings) input.push_back({index++, t});

  const int32_t shards = num_moment_shards;
  // Reducers run concurrently but the shuffle is single-writer; the first
  // spill failure latches and stops further Adds.
  std::mutex shuffle_mutex;
  Status shuffle_status = Status::OK();

  MapReduceStats stats;
  auto candidates = RunMapReduce<int64_t, RatingTriple, ItemId, UserRating,
                                 ItemId, std::vector<UserRating>>(
      input,
      [](const int64_t&, const RatingTriple& t,
         MapEmitter<ItemId, UserRating>& out) {
        out.Emit(t.item, {t.user, t.value});
      },
      [&is_member, &moments, &shuffle_mutex, &shuffle_status, shards](
          const ItemId& item, std::span<const UserRating> raters,
          ReduceEmitter<ItemId, std::vector<UserRating>>& out) {
        bool any_member = false;
        for (const UserRating& r : raters) {
          if (is_member[static_cast<size_t>(r.user)] != 0) {
            any_member = true;
            break;
          }
        }
        if (!any_member) {
          out.Emit(item, std::vector<UserRating>(raters.begin(), raters.end()));
          return;
        }
        const int32_t shard = static_cast<int32_t>(item % shards);
        std::lock_guard<std::mutex> lock(shuffle_mutex);
        if (!shuffle_status.ok()) return;
        for (const UserRating& member : raters) {
          if (is_member[static_cast<size_t>(member.user)] == 0) continue;
          for (const UserRating& peer : raters) {
            if (is_member[static_cast<size_t>(peer.user)] != 0) continue;
            PairMoments contribution;
            contribution.Add(member.value, peer.value);
            Status added =
                moments.Add(member.user, peer.user, shard, item, contribution);
            if (!added.ok()) {
              shuffle_status = std::move(added);
              return;
            }
          }
        }
      },
      options, &stats);
  FAIRREC_RETURN_NOT_OK(shuffle_status);

  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });

  Job1SpilledOutput result{std::move(candidates), std::move(moments), stats,
                           /*co_rating_records=*/0};
  result.co_rating_records = result.moments.stats().records_in;
  return result;
}

std::vector<KeyValue<UserPairKey, double>> RunJob2(
    const std::vector<KeyValue<UserPairKey, PairMoments>>& partial_moments,
    const std::vector<double>& user_means,
    const RatingSimilarityOptions& sim_options, double delta,
    const MapReduceOptions& options, MapReduceStats* stats) {
  // Merge-only reduce, then one batched finish + Def. 1 threshold pass over
  // the merged stream (O(member pairs) records — no larger than the input).
  const auto merged = MergeJob2Moments(partial_moments, options, stats);
  std::vector<KeyValue<UserPairKey, double>> output;
  FinishMergedPairs(merged, user_means, sim_options,
                    [&output, delta](const UserPairKey& key, double sim) {
                      if (sim >= delta) output.push_back({key, sim});
                    });
  if (stats != nullptr) {
    // The thresholded record stream is the job's output, not the merged
    // moments RunMapReduce counted.
    stats->output_records = static_cast<int64_t>(output.size());
  }
  std::sort(output.begin(), output.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  return output;
}

Result<MomentStore> BuildMomentStoreFromPartialMoments(
    const std::vector<KeyValue<UserPairKey, PairMoments>>& partial_moments,
    int32_t num_users, const MomentStoreOptions& store_options) {
  if (num_users < 0) {
    return Status::InvalidArgument("num_users must be non-negative");
  }
  if (store_options.tile_users <= 0) {
    return Status::InvalidArgument("tile_users must be positive");
  }
  MomentStore::Builder builder(num_users, store_options);
  // The stream is sorted by pair with each pair's shard partials in
  // ascending shard order; merging in stream order therefore reproduces the
  // Job 2 reducers' sums (and, at one shard, the engine's accumulation)
  // deterministically.
  for (size_t first = 0; first < partial_moments.size();) {
    size_t last = first;
    while (last < partial_moments.size() &&
           partial_moments[last].key == partial_moments[first].key) {
      ++last;
    }
    const UserPairKey& key = partial_moments[first].key;
    PairMoments total;
    for (size_t k = first; k < last; ++k) {
      total.Merge(partial_moments[k].value);
    }
    if (key.first < key.second) {
      builder.Add(key.first, key.second, total);
    } else if (key.second < key.first) {
      builder.Add(key.second, key.first, total.Swapped());
    }
    first = last;
  }
  return std::move(builder).Build();
}

Result<PeerIndex> RunJob2PeerIndex(
    const std::vector<KeyValue<UserPairKey, PairMoments>>& partial_moments,
    const std::vector<double>& user_means,
    const RatingSimilarityOptions& sim_options, double delta,
    int32_t num_users, int32_t max_peers_per_member,
    const MapReduceOptions& options, MapReduceStats* stats) {
  if (num_users < 0) {
    return Status::InvalidArgument("num_users must be >= 0");
  }
  if (max_peers_per_member < 0) {
    return Status::InvalidArgument("max_peers_per_member must be >= 0");
  }

  PeerIndexOptions index_options;
  index_options.delta = delta;
  index_options.max_peers_per_user = max_peers_per_member;
  PeerIndex::Builder builder(num_users, index_options);

  // Same shape as RunJob2 — merge-only reduce, one batched finish pass —
  // but qualifying pairs feed straight into the builder instead of a
  // thresholded record stream. The Job 1 stream is directional (member ->
  // outside user), so only the member side of each pair gets a list entry;
  // OfferPair would invent edges for non-members that a whole-population
  // build wouldn't have.
  const auto merged = MergeJob2Moments(partial_moments, options, stats);
  FinishMergedPairs(merged, user_means, sim_options,
                    [&builder, delta](const UserPairKey& key, double sim) {
                      if (sim >= delta) {
                        builder.Offer(key.first, key.second, sim);
                      }
                    });

  PeerIndex index = std::move(builder).Build();
  // The reducers emit into the builder, not the record stream, so surface
  // the artifact size where the record count would have been.
  if (stats != nullptr) stats->output_records = index.num_entries();
  return index;
}

Result<PeerIndex> RunJob2PeerIndex(PairMomentShuffle& moments,
                                   const std::vector<double>& user_means,
                                   const RatingSimilarityOptions& sim_options,
                                   double delta, int32_t num_users,
                                   int32_t max_peers_per_member,
                                   MapReduceStats* stats) {
  if (num_users < 0) {
    return Status::InvalidArgument("num_users must be >= 0");
  }
  if (max_peers_per_member < 0) {
    return Status::InvalidArgument("max_peers_per_member must be >= 0");
  }

  PeerIndexOptions index_options;
  index_options.delta = delta;
  index_options.max_peers_per_user = max_peers_per_member;
  PeerIndex::Builder builder(num_users, index_options);

  const int64_t records_in = moments.stats().records_in;
  const auto mean_of = [&user_means](UserId u) {
    return (u >= 0 && static_cast<size_t>(u) < user_means.size())
               ? user_means[static_cast<size_t>(u)]
               : 0.0;
  };

  // The drain delivers (pair, shard) groups in ascending key order, so each
  // pair's shard partials arrive consecutively in ascending shard order —
  // the exact association MergeJob2Moments' reducers use. Merge them
  // pair-locally and finish through the shared batched kernel; the guarded
  // short-circuit to literal 0 mirrors FinishMergedPairs.
  {
    auto stream = MakePearsonFinishStream<UserPairKey>(
        sim_options, [&builder, delta](const UserPairKey& key, double sim) {
          if (sim >= delta) builder.Offer(key.first, key.second, sim);
        });
    bool have_pair = false;
    UserPairKey current{};
    PairMoments total;
    const auto finish_current = [&] {
      if (!have_pair) return;
      if (PearsonOverlapGuardFails(total.n, sim_options)) {
        if (0.0 >= delta) builder.Offer(current.first, current.second, 0.0);
      } else if (current.first <= current.second) {
        stream.Stage(total, mean_of(current.first), mean_of(current.second),
                     current);
      } else {
        stream.Stage(total.Swapped(), mean_of(current.second),
                     mean_of(current.first), current);
      }
    };
    FAIRREC_RETURN_NOT_OK(moments.Drain(
        [&](UserId a, UserId b, int32_t /*shard*/,
            const PairMoments& group_moments) -> Status {
          const UserPairKey key{a, b};
          if (have_pair && key == current) {
            total.Merge(group_moments);
          } else {
            finish_current();
            current = key;
            // Zero-then-merge, not copy: the vector overload's reducers
            // fold each pair's first partial into a default PairMoments.
            total = PairMoments();
            total.Merge(group_moments);
            have_pair = true;
          }
          return Status::OK();
        }));
    finish_current();
    // Falling off the scope flushes the stream's ragged tail into the
    // builder before Build() freezes it.
  }

  PeerIndex index = std::move(builder).Build();
  if (stats != nullptr) {
    stats->input_records = records_in;
    stats->intermediate_records = moments.stats().groups_out;
    stats->output_records = index.num_entries();
  }
  return index;
}

namespace {

/// The shared Job 3 reduce, fed with each member's peer list already in the
/// canonical order (descending similarity, ties ascending id).
std::vector<KeyValue<ItemId, GroupItemRelevance>> RunJob3WithPeerLists(
    const std::vector<KeyValue<ItemId, std::vector<UserRating>>>& candidates,
    const std::vector<std::vector<Peer>>& peers, const Group& group,
    AggregationKind aggregation, const MapReduceOptions& options,
    MapReduceStats* stats) {
  auto output = RunMapReduce<ItemId, std::vector<UserRating>, ItemId, UserRating,
                             ItemId, GroupItemRelevance>(
      candidates,
      // Map: explode each candidate's rater list to (i, (user, rating)).
      [](const ItemId& item, const std::vector<UserRating>& raters,
         MapEmitter<ItemId, UserRating>& out) {
        for (const UserRating& r : raters) out.Emit(item, r);
      },
      // Reduce per item: Eq. 1 per member, then the group aggregate.
      [&peers, &group, aggregation](const ItemId& item,
                                    std::span<const UserRating> raters,
                                    ReduceEmitter<ItemId, GroupItemRelevance>& out) {
        std::unordered_map<UserId, Rating> rating_of;
        rating_of.reserve(raters.size());
        for (const UserRating& r : raters) rating_of.emplace(r.user, r.value);

        GroupItemRelevance rel;
        rel.member_relevance.assign(group.size(), kUndefined);
        std::vector<double> defined;
        defined.reserve(group.size());
        for (size_t m = 0; m < group.size(); ++m) {
          double weighted = 0.0;
          double total = 0.0;
          for (const Peer& peer : peers[m]) {
            const auto it = rating_of.find(peer.user);
            if (it == rating_of.end()) continue;
            weighted += peer.similarity * it->second;
            total += peer.similarity;
          }
          if (total > 0.0) {
            rel.member_relevance[m] = weighted / total;
            defined.push_back(rel.member_relevance[m]);
          }
        }
        if (defined.empty()) return;  // unrecommendable to every member
        rel.defined_for_all = defined.size() == group.size();
        rel.group_relevance =
            Aggregate(std::span<const double>(defined), aggregation);
        out.Emit(item, rel);
      },
      options, stats);

  std::sort(output.begin(), output.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  return output;
}

}  // namespace

std::vector<KeyValue<ItemId, GroupItemRelevance>> RunJob3(
    const std::vector<KeyValue<ItemId, std::vector<UserRating>>>& candidates,
    const std::vector<KeyValue<UserPairKey, double>>& similarities,
    const Group& group, AggregationKind aggregation,
    const MapReduceOptions& options, MapReduceStats* stats) {
  // Side data (a Hadoop distributed-cache equivalent): each member's peer
  // list in the serial PeerFinder order (descending similarity, ascending
  // id), so the Eq. 1 accumulation adds terms in the exact order the serial
  // RelevanceEstimator does.
  std::unordered_map<UserId, size_t> member_index;
  for (size_t m = 0; m < group.size(); ++m) member_index.emplace(group[m], m);
  std::vector<std::vector<Peer>> peers(group.size());
  for (const auto& kv : similarities) {
    const auto it = member_index.find(kv.key.first);
    if (it != member_index.end()) {
      peers[it->second].push_back({kv.key.second, kv.value});
    }
  }
  for (auto& list : peers) {
    std::sort(list.begin(), list.end(), BetterPeer);
  }
  return RunJob3WithPeerLists(candidates, peers, group, aggregation, options,
                              stats);
}

std::vector<KeyValue<ItemId, GroupItemRelevance>> RunJob3(
    const std::vector<KeyValue<ItemId, std::vector<UserRating>>>& candidates,
    const PeerProvider& peers, const Group& group, AggregationKind aggregation,
    const MapReduceOptions& options, MapReduceStats* stats) {
  std::vector<std::vector<Peer>> lists(group.size());
  for (size_t m = 0; m < group.size(); ++m) {
    const auto span = peers.PeersOf(group[m]);
    lists[m].assign(span.begin(), span.end());
  }
  return RunJob3WithPeerLists(candidates, lists, group, aggregation, options,
                              stats);
}

}  // namespace fairrec
