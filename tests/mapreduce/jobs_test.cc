#include "mapreduce/jobs.h"

#include <algorithm>
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "cf/peer_finder.h"
#include "cf/relevance_estimator.h"
#include "common/random.h"
#include "ratings/rating_matrix.h"
#include "sim/pairwise_engine.h"
#include "tests/oracle/naive_peers.h"

namespace fairrec {
namespace {

RatingMatrix RandomMatrix(uint64_t seed, int32_t users = 20, int32_t items = 30,
                          double density = 0.4) {
  Rng rng(seed);
  RatingMatrixBuilder builder;
  builder.Reserve(users, items);
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

/// The engine's similarity for the unordered pair {a, b} — the reference the
/// moment-sharded jobs must reproduce bit-for-bit.
double EngineSim(const std::vector<double>& triangle, UserId a, UserId b,
                 int32_t num_users) {
  if (a > b) std::swap(a, b);
  return triangle[PairwiseSimilarityEngine::PackedTriangleIndex(a, b,
                                                                num_users)];
}

TEST(UserMeanJobTest, MatchesMatrixMeans) {
  const RatingMatrix m = RandomMatrix(42);
  const std::vector<double> means =
      RunUserMeanJob(m.ToTriples(), m.num_users(), {});
  ASSERT_EQ(means.size(), static_cast<size_t>(m.num_users()));
  for (UserId u = 0; u < m.num_users(); ++u) {
    EXPECT_DOUBLE_EQ(means[static_cast<size_t>(u)], m.UserMean(u)) << "u=" << u;
  }
}

TEST(Job1Test, RejectsBadGroups) {
  const RatingMatrix m = RandomMatrix(1);
  EXPECT_TRUE(RunJob1(m.ToTriples(), {}, m.num_users(), {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(RunJob1(m.ToTriples(), {999}, m.num_users(), {})
                  .status()
                  .IsInvalidArgument());
}

TEST(Job1Test, RejectsBadShardCounts) {
  const RatingMatrix m = RandomMatrix(2);
  EXPECT_TRUE(RunJob1(m.ToTriples(), {0}, m.num_users(), {}, 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(RunJob1(m.ToTriples(), {0}, m.num_users(), {}, -3)
                  .status()
                  .IsInvalidArgument());
}

TEST(Job1Test, CandidateStreamEqualsItemsUnratedByAll) {
  const RatingMatrix m = RandomMatrix(7);
  const Group group{0, 3, 5};
  const Job1Output out =
      std::move(RunJob1(m.ToTriples(), group, m.num_users(), {})).ValueOrDie();

  std::vector<ItemId> candidates;
  for (const auto& kv : out.candidate_items) candidates.push_back(kv.key);
  // Job 1 only sees *rated* items; ItemsUnratedByAll also returns items with
  // no ratings at all. Those cannot be recommended by Eq. 1 anyway, so the
  // MR stream must equal the serial list filtered to rated items.
  std::vector<ItemId> expected;
  for (const ItemId i : m.ItemsUnratedByAll(group)) {
    if (m.ItemDegree(i) > 0) expected.push_back(i);
  }
  EXPECT_EQ(candidates, expected);
}

TEST(Job1Test, CandidateRaterListsMatchMatrixColumns) {
  const RatingMatrix m = RandomMatrix(8);
  const Group group{1, 2};
  const Job1Output out =
      std::move(RunJob1(m.ToTriples(), group, m.num_users(), {})).ValueOrDie();
  for (const auto& kv : out.candidate_items) {
    const auto column = m.UsersWhoRated(kv.key);
    std::vector<UserRating> expected(column.begin(), column.end());
    std::vector<UserRating> actual = kv.value;
    std::sort(actual.begin(), actual.end(),
              [](const UserRating& a, const UserRating& b) {
                return a.user < b.user;
              });
    EXPECT_EQ(actual, expected) << "item " << kv.key;
  }
}

TEST(Job1Test, MomentPairsOnlyMemberOutsidePairs) {
  const RatingMatrix m = RandomMatrix(9);
  const Group group{0, 4};
  const Job1Output out =
      std::move(RunJob1(m.ToTriples(), group, m.num_users(), {})).ValueOrDie();
  for (const auto& kv : out.partial_moments) {
    EXPECT_TRUE(kv.key.first == 0 || kv.key.first == 4);
    EXPECT_TRUE(kv.key.second != 0 && kv.key.second != 4);
    EXPECT_GT(kv.value.n, 0);
  }
}

TEST(Job1Test, MomentCountsEqualCoRatedItemCounts) {
  const RatingMatrix m = RandomMatrix(10);
  const Group group{2};
  const Job1Output out =
      std::move(RunJob1(m.ToTriples(), group, m.num_users(), {})).ValueOrDie();
  // With one shard there is exactly one moment record per co-rating pair,
  // whose n is the number of co-rated member-rated items; co_rating_records
  // counts what the retired per-item record stream would have shipped.
  std::map<UserPairKey, int64_t> overlap;
  int64_t total_n = 0;
  for (const auto& kv : out.partial_moments) {
    EXPECT_EQ(overlap.count(kv.key), 0u) << "duplicate pair record";
    overlap[kv.key] = kv.value.n;
    total_n += kv.value.n;
  }
  EXPECT_EQ(total_n, out.co_rating_records);
  for (UserId v = 0; v < m.num_users(); ++v) {
    if (v == 2) continue;
    int64_t expected = 0;
    for (const ItemRating& entry : m.ItemsRatedBy(2)) {
      if (m.GetRating(v, entry.item).has_value()) ++expected;
    }
    const auto it = overlap.find({2, v});
    EXPECT_EQ(it == overlap.end() ? 0 : it->second, expected) << "peer " << v;
  }
}

TEST(Job1Test, ShardedMomentsMergeToSingleShardMoments) {
  const RatingMatrix m = RandomMatrix(15);
  const Group group{1, 6};
  const Job1Output single =
      std::move(RunJob1(m.ToTriples(), group, m.num_users(), {}, 1))
          .ValueOrDie();
  for (const int32_t shards : {2, 3, 7, 64}) {
    const Job1Output sharded =
        std::move(RunJob1(m.ToTriples(), group, m.num_users(), {}, shards))
            .ValueOrDie();
    EXPECT_EQ(sharded.co_rating_records, single.co_rating_records);
    // Same co-ratings, different grouping: merging each pair's shard
    // partials must reproduce the single-shard moments exactly (integer
    // ratings make the sums order-independent).
    std::map<UserPairKey, PairMoments> merged;
    std::map<UserPairKey, int64_t> records_per_pair;
    for (const auto& kv : sharded.partial_moments) {
      merged[kv.key].Merge(kv.value);
      records_per_pair[kv.key] += 1;
    }
    ASSERT_EQ(merged.size(), single.partial_moments.size()) << shards;
    for (const auto& kv : single.partial_moments) {
      const auto it = merged.find(kv.key);
      ASSERT_NE(it, merged.end());
      EXPECT_EQ(it->second, kv.value)
          << "pair (" << kv.key.first << "," << kv.key.second << ") shards "
          << shards;
      EXPECT_LE(records_per_pair[kv.key], static_cast<int64_t>(shards));
    }
  }
}

TEST(Job2Test, MatchesEngineSimilarityAboveDelta) {
  const RatingMatrix m = RandomMatrix(11);
  const Group group{0, 1};
  const double delta = 0.2;
  const Job1Output job1 =
      std::move(RunJob1(m.ToTriples(), group, m.num_users(), {})).ValueOrDie();
  const std::vector<double> means =
      RunUserMeanJob(m.ToTriples(), m.num_users(), {});

  for (const bool intersection : {false, true}) {
    RatingSimilarityOptions sim_options;
    sim_options.intersection_means = intersection;
    const auto job2 = RunJob2(job1.partial_moments, means, sim_options,
                              delta, {});
    const PairwiseSimilarityEngine engine(&m, sim_options);
    const std::vector<double> triangle =
        std::move(engine.ComputeAll()).ValueOrDie();

    // Every MR pair must match the engine value bit-for-bit (same moments,
    // same finish); every engine-qualifying pair must be present.
    std::map<UserPairKey, double> mr;
    for (const auto& kv : job2) mr[kv.key] = kv.value;
    for (const UserId g : group) {
      for (UserId v = 0; v < m.num_users(); ++v) {
        if (v == group[0] || v == group[1]) continue;
        const double expected = EngineSim(triangle, g, v, m.num_users());
        const auto it = mr.find({g, v});
        if (expected >= delta) {
          ASSERT_NE(it, mr.end()) << "missing pair (" << g << "," << v << ")";
          EXPECT_EQ(it->second, expected) << "(" << g << "," << v << ")";
        } else {
          EXPECT_EQ(it, mr.end()) << "unexpected pair (" << g << "," << v << ")";
        }
      }
    }
  }
}

TEST(Job2Test, ShardCountDoesNotChangeThresholdedPairs) {
  const RatingMatrix m = RandomMatrix(16);
  const Group group{0, 9};
  const double delta = 0.15;
  const std::vector<double> means =
      RunUserMeanJob(m.ToTriples(), m.num_users(), {});
  RatingSimilarityOptions sim_options;
  sim_options.shift_to_unit_interval = true;

  const Job1Output base =
      std::move(RunJob1(m.ToTriples(), group, m.num_users(), {}, 1))
          .ValueOrDie();
  const auto reference =
      RunJob2(base.partial_moments, means, sim_options, delta, {});
  ASSERT_FALSE(reference.empty());
  for (const int32_t shards : {2, 5, 13}) {
    const Job1Output sharded =
        std::move(RunJob1(m.ToTriples(), group, m.num_users(), {}, shards))
            .ValueOrDie();
    const auto job2 =
        RunJob2(sharded.partial_moments, means, sim_options, delta, {});
    // Integer ratings: shard merges are exact, so the thresholded stream is
    // identical — keys and values — for every layout.
    ASSERT_EQ(job2.size(), reference.size()) << shards;
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(job2[i].key, reference[i].key) << shards;
      EXPECT_EQ(job2[i].value, reference[i].value) << shards;
    }
  }
}

TEST(Job2PeerIndexTest, PeerListModeMatchesRecordMode) {
  const RatingMatrix m = RandomMatrix(21);
  const Group group{0, 1};
  const double delta = 0.2;
  const Job1Output job1 =
      std::move(RunJob1(m.ToTriples(), group, m.num_users(), {})).ValueOrDie();
  const std::vector<double> means =
      RunUserMeanJob(m.ToTriples(), m.num_users(), {});
  RatingSimilarityOptions sim_options;

  const auto records =
      RunJob2(job1.partial_moments, means, sim_options, delta, {});
  MapReduceStats stats;
  const PeerIndex index =
      std::move(RunJob2PeerIndex(job1.partial_moments, means, sim_options,
                                 delta, m.num_users(), 0, {}, &stats))
          .ValueOrDie();

  // Same edges, same values, re-keyed per member in BetterPeer order.
  EXPECT_EQ(index.num_entries(), static_cast<int64_t>(records.size()));
  EXPECT_EQ(stats.output_records, index.num_entries());
  std::vector<std::vector<Peer>> expected(static_cast<size_t>(m.num_users()));
  for (const auto& kv : records) {
    expected[static_cast<size_t>(kv.key.first)].push_back(
        {kv.key.second, kv.value});
  }
  for (auto& list : expected) std::sort(list.begin(), list.end(), BetterPeer);
  for (UserId u = 0; u < m.num_users(); ++u) {
    const auto span = index.PeersOf(u);
    EXPECT_EQ(std::vector<Peer>(span.begin(), span.end()),
              expected[static_cast<size_t>(u)])
        << "u=" << u;
  }

  // Job 3 over the artifact must equal Job 3 over the record stream.
  const auto from_records = RunJob3(job1.candidate_items, records, group,
                                    AggregationKind::kAverage, {});
  const auto from_index = RunJob3(job1.candidate_items, index, group,
                                  AggregationKind::kAverage, {});
  ASSERT_EQ(from_index.size(), from_records.size());
  for (size_t i = 0; i < from_records.size(); ++i) {
    EXPECT_EQ(from_index[i].key, from_records[i].key);
    EXPECT_EQ(from_index[i].value.group_relevance,
              from_records[i].value.group_relevance);
    for (size_t g = 0; g < group.size(); ++g) {
      const double a = from_index[i].value.member_relevance[g];
      const double b = from_records[i].value.member_relevance[g];
      EXPECT_TRUE((std::isnan(a) && std::isnan(b)) || a == b)
          << "item " << from_index[i].key << " member " << g;
    }
  }
}

TEST(Job2PeerIndexTest, MemberCapKeepsBestPeers) {
  const RatingMatrix m = RandomMatrix(22);
  const Group group{3};
  const double delta = 0.0;
  const Job1Output job1 =
      std::move(RunJob1(m.ToTriples(), group, m.num_users(), {})).ValueOrDie();
  const std::vector<double> means =
      RunUserMeanJob(m.ToTriples(), m.num_users(), {});

  const PeerIndex unbounded =
      std::move(RunJob2PeerIndex(job1.partial_moments, means, {}, delta,
                                 m.num_users()))
          .ValueOrDie();
  const PeerIndex capped =
      std::move(RunJob2PeerIndex(job1.partial_moments, means, {}, delta,
                                 m.num_users(), /*max_peers_per_member=*/2))
          .ValueOrDie();

  const auto full = unbounded.PeersOf(3);
  const auto top = capped.PeersOf(3);
  ASSERT_GE(full.size(), top.size());
  ASSERT_LE(top.size(), 2u);
  // The capped list is exactly the prefix of the unbounded one.
  for (size_t i = 0; i < top.size(); ++i) EXPECT_EQ(top[i], full[i]);
}

TEST(Job3Test, MatchesSerialRelevanceEstimator) {
  const RatingMatrix m = RandomMatrix(12);
  const Group group{0, 5};
  const double delta = 0.1;
  const Job1Output job1 =
      std::move(RunJob1(m.ToTriples(), group, m.num_users(), {})).ValueOrDie();
  const std::vector<double> means =
      RunUserMeanJob(m.ToTriples(), m.num_users(), {});
  RatingSimilarityOptions sim_options;
  sim_options.shift_to_unit_interval = true;
  const auto job2 =
      RunJob2(job1.partial_moments, means, sim_options, delta, {});
  const auto job3 = RunJob3(job1.candidate_items, job2, group,
                            AggregationKind::kAverage, {});

  // Serial reference.
  const RatingSimilarity similarity(&m, sim_options);
  PeerFinderOptions peer_options;
  peer_options.delta = delta;
  const RelevanceEstimator estimator(&m);

  for (const auto& kv : job3) {
    const ItemId item = kv.key;
    for (size_t g = 0; g < group.size(); ++g) {
      const std::vector<Peer> peers =
          NaivePeers(similarity, m.num_users(), group[g], peer_options, group);
      const auto serial_rel = estimator.Estimate(peers, item);
      const double mr_rel = kv.value.member_relevance[g];
      if (serial_rel.has_value()) {
        EXPECT_NEAR(mr_rel, *serial_rel, 1e-9)
            << "item " << item << " member " << group[g];
      } else {
        EXPECT_TRUE(std::isnan(mr_rel)) << "item " << item;
      }
    }
  }
}

TEST(Job3Test, GroupAggregationMatchesKind) {
  const RatingMatrix m = RandomMatrix(13);
  const Group group{3, 7};
  const Job1Output job1 =
      std::move(RunJob1(m.ToTriples(), group, m.num_users(), {})).ValueOrDie();
  const std::vector<double> means =
      RunUserMeanJob(m.ToTriples(), m.num_users(), {});
  RatingSimilarityOptions sim_options;
  sim_options.shift_to_unit_interval = true;
  const auto job2 =
      RunJob2(job1.partial_moments, means, sim_options, 0.1, {});
  const auto min_out = RunJob3(job1.candidate_items, job2, group,
                               AggregationKind::kMinimum, {});
  for (const auto& kv : min_out) {
    if (!kv.value.defined_for_all) continue;
    EXPECT_DOUBLE_EQ(kv.value.group_relevance,
                     std::min(kv.value.member_relevance[0],
                              kv.value.member_relevance[1]));
  }
}

TEST(JobsTest, ParallelismDoesNotChangeOutputs) {
  const RatingMatrix m = RandomMatrix(14);
  const Group group{0, 2};
  MapReduceOptions serial;
  serial.num_workers = 1;
  serial.num_map_shards = 1;
  serial.num_reduce_partitions = 1;
  MapReduceOptions parallel;
  parallel.num_workers = 4;
  parallel.num_map_shards = 7;
  parallel.num_reduce_partitions = 3;

  for (const int32_t shards : {1, 4}) {
    const Job1Output a =
        std::move(RunJob1(m.ToTriples(), group, m.num_users(), serial, shards))
            .ValueOrDie();
    const Job1Output b =
        std::move(RunJob1(m.ToTriples(), group, m.num_users(), parallel, shards))
            .ValueOrDie();
    ASSERT_EQ(a.candidate_items.size(), b.candidate_items.size());
    for (size_t i = 0; i < a.candidate_items.size(); ++i) {
      EXPECT_EQ(a.candidate_items[i].key, b.candidate_items[i].key);
    }
    // Moment streams are canonically sorted and folded at the Job 1
    // boundary, so they must be identical across partition layouts.
    EXPECT_EQ(a.co_rating_records, b.co_rating_records);
    ASSERT_EQ(a.partial_moments.size(), b.partial_moments.size());
    for (size_t i = 0; i < a.partial_moments.size(); ++i) {
      EXPECT_EQ(a.partial_moments[i].key, b.partial_moments[i].key);
      EXPECT_EQ(a.partial_moments[i].value, b.partial_moments[i].value);
    }
  }
}

}  // namespace
}  // namespace fairrec
