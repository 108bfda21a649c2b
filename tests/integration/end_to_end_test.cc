#include <memory>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "cf/recommender.h"
#include "core/brute_force.h"
#include "core/fairness_heuristic.h"
#include "core/greedy_selector.h"
#include "core/group_context.h"
#include "data/scenario.h"
#include "eval/metrics.h"
#include "mapreduce/pipeline.h"
#include "ratings/rating_delta.h"
#include "sim/hybrid_similarity.h"
#include "sim/incremental_peer_graph.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_adapter.h"
#include "sim/peer_index.h"
#include "sim/profile_similarity.h"
#include "sim/rating_similarity.h"
#include "sim/semantic_similarity.h"
#include "sim/similarity_matrix.h"

namespace fairrec {
namespace {

/// One shared synthetic world for the whole suite (expensive to build).
class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config;
    config.num_patients = 120;
    config.num_documents = 100;
    config.num_clusters = 5;
    config.rating_density = 0.15;
    config.seed = 20170417;  // ICDE 2017 week
    scenario_ = new Scenario(std::move(BuildScenario(config)).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  static const Scenario& scenario() { return *scenario_; }

  static RecommenderOptions DefaultRecOptions() {
    RecommenderOptions options;
    options.peers.delta = 0.55;  // shifted-Pearson scale
    options.top_k = 8;
    return options;
  }

  /// The engine-built Def. 1 graph of the shifted rating similarity at the
  /// default delta: the serving path's peers.
  static PeerIndex RatingPeers() {
    RatingSimilarityOptions rs_options;
    rs_options.shift_to_unit_interval = true;
    PeerIndexOptions peer_options;
    peer_options.delta = DefaultRecOptions().peers.delta;
    const PairwiseSimilarityEngine engine(&scenario().ratings, rs_options);
    return std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();
  }

  /// The Def. 1 graph of any other measure: one Compute per pair, kept at
  /// `delta` with no cap.
  static DensePeerAdapter AdapterPeers(const UserSimilarity& sim,
                                       double delta) {
    PeerIndexOptions peer_options;
    peer_options.delta = delta;
    return DensePeerAdapter(sim, scenario().ratings.num_users(), peer_options);
  }

  /// Eq. 1 per member, aggregated by Def. 2: the selectors' input.
  static GroupContext ContextOf(const Recommender& recommender,
                                const Group& group,
                                GroupContextOptions options = {}) {
    const auto members =
        std::move(recommender.RelevanceForGroup(group)).ValueOrDie();
    return std::move(GroupContext::Build(members, options)).ValueOrDie();
  }

  static Scenario* scenario_;
};

Scenario* EndToEndTest::scenario_ = nullptr;

TEST_F(EndToEndTest, RatingsPathProducesFairSelection) {
  const PeerIndex peers = RatingPeers();
  const Recommender recommender(&scenario().ratings, &peers,
                                DefaultRecOptions());
  const Group group = scenario().MakeCohesiveGroup(4, 42);

  const FairnessHeuristic heuristic;
  const Selection selection =
      std::move(heuristic.Select(ContextOf(recommender, group), 6))
          .ValueOrDie();
  EXPECT_EQ(selection.items.size(), 6u);
  EXPECT_DOUBLE_EQ(selection.score.fairness, 1.0);  // z=6 >= |G|=4 (Prop. 1)
  const std::set<ItemId> unique(selection.items.begin(), selection.items.end());
  EXPECT_EQ(unique.size(), 6u);
  // Nothing recommended that any member already rated.
  for (const ItemId item : selection.items) {
    for (const UserId u : group) {
      EXPECT_FALSE(scenario().ratings.HasRating(u, item));
    }
  }
}

TEST_F(EndToEndTest, AllThreeSimilarityMeasuresDriveTheSamePipeline) {
  const Group group = scenario().MakeRandomGroup(3, 7);

  RatingSimilarityOptions rs_options;
  rs_options.shift_to_unit_interval = true;
  const RatingSimilarity rs(&scenario().ratings, rs_options);
  const auto cs = std::move(ProfileSimilarity::Create(
                                scenario().cohort.profiles,
                                scenario().ontology.ontology))
                      .ValueOrDie();
  const SemanticSimilarity ss(&scenario().cohort.profiles,
                              &scenario().ontology.ontology);

  struct Case {
    const UserSimilarity* sim;
    double delta;
  };
  const std::vector<Case> cases{{&rs, 0.55}, {cs.get(), 0.15}, {&ss, 0.15}};
  for (const Case& c : cases) {
    RecommenderOptions options = DefaultRecOptions();
    options.peers.delta = c.delta;
    const DensePeerAdapter peers = AdapterPeers(*c.sim, c.delta);
    const Recommender recommender(&scenario().ratings, &peers, options);
    const auto members = recommender.RelevanceForGroup(group);
    ASSERT_TRUE(members.ok()) << c.sim->name();
    const auto context = GroupContext::Build(*members);
    ASSERT_TRUE(context.ok()) << c.sim->name();
    EXPECT_GT(context->num_candidates(), 0) << c.sim->name();
    const FairnessHeuristic heuristic;
    const auto selection = heuristic.Select(*context, 5);
    ASSERT_TRUE(selection.ok()) << c.sim->name();
    EXPECT_EQ(selection->items.size(), 5u) << c.sim->name();
  }
}

TEST_F(EndToEndTest, HybridSimilarityEndToEnd) {
  RatingSimilarityOptions rs_options;
  rs_options.shift_to_unit_interval = true;
  const RatingSimilarity rs(&scenario().ratings, rs_options);
  const auto cs = std::move(ProfileSimilarity::Create(
                                scenario().cohort.profiles,
                                scenario().ontology.ontology))
                      .ValueOrDie();
  const SemanticSimilarity ss(&scenario().cohort.profiles,
                              &scenario().ontology.ontology);
  const auto hybrid =
      std::move(HybridSimilarity::Create(
                    {{&rs, 0.5}, {cs.get(), 0.25}, {&ss, 0.25}}))
          .ValueOrDie();

  RecommenderOptions options = DefaultRecOptions();
  options.peers.delta = 0.35;
  const DensePeerAdapter peers = AdapterPeers(*hybrid, options.peers.delta);
  const Recommender recommender(&scenario().ratings, &peers, options);
  const Group group = scenario().MakeCohesiveGroup(3, 99);
  const FairnessHeuristic heuristic;
  const Selection selection =
      std::move(heuristic.Select(ContextOf(recommender, group), 5))
          .ValueOrDie();
  EXPECT_EQ(selection.items.size(), 5u);
  EXPECT_DOUBLE_EQ(selection.score.fairness, 1.0);
}

TEST_F(EndToEndTest, PrecomputedMatrixAgreesWithDirectSimilarity) {
  const SemanticSimilarity ss(&scenario().cohort.profiles,
                              &scenario().ontology.ontology);
  const auto cached = std::move(SimilarityMatrix::Precompute(
                                    ss, scenario().ratings.num_users()))
                          .ValueOrDie();
  RecommenderOptions options = DefaultRecOptions();
  options.peers.delta = 0.15;
  const Group group = scenario().MakeRandomGroup(3, 5);

  const DensePeerAdapter direct_peers = AdapterPeers(ss, options.peers.delta);
  const DensePeerAdapter cached_peers =
      AdapterPeers(*cached, options.peers.delta);
  const Recommender direct(&scenario().ratings, &direct_peers, options);
  const Recommender precomputed(&scenario().ratings, &cached_peers, options);
  const FairnessHeuristic heuristic;
  const Selection a =
      std::move(heuristic.Select(ContextOf(direct, group), 4)).ValueOrDie();
  const Selection b =
      std::move(heuristic.Select(ContextOf(precomputed, group), 4))
          .ValueOrDie();
  EXPECT_EQ(a.items, b.items);
}

TEST_F(EndToEndTest, SparsePeerGraphServingPathMatchesDenseTriangle) {
  // The dense path: precompute the full U^2 triangle, threshold it through
  // the adapter. The serving path: the engine emits the thresholded peer
  // graph directly.
  // Both finish Pearson in the same engine, so contexts and selections must
  // agree exactly.
  RatingSimilarityOptions rs_options;
  rs_options.shift_to_unit_interval = true;
  const RecommenderOptions rec_options = DefaultRecOptions();

  const RatingSimilarity base(&scenario().ratings, rs_options);
  const auto cached =
      std::move(SimilarityMatrix::Precompute(base,
                                             scenario().ratings.num_users()))
          .ValueOrDie();
  const DensePeerAdapter dense_peers =
      AdapterPeers(*cached, rec_options.peers.delta);
  const Recommender dense(&scenario().ratings, &dense_peers, rec_options);

  const PeerIndex peers = RatingPeers();
  const Recommender sparse(&scenario().ratings, &peers, rec_options);

  const FairnessHeuristic heuristic;
  for (const uint64_t seed : {5u, 42u, 99u}) {
    const Group group = scenario().MakeRandomGroup(4, seed);
    const GroupContext dense_ctx = ContextOf(dense, group);
    const GroupContext sparse_ctx = ContextOf(sparse, group);
    ASSERT_EQ(sparse_ctx.num_candidates(), dense_ctx.num_candidates());
    for (int32_t c = 0; c < dense_ctx.num_candidates(); ++c) {
      EXPECT_EQ(sparse_ctx.candidate(c).item, dense_ctx.candidate(c).item);
      EXPECT_EQ(sparse_ctx.candidate(c).group_relevance,
                dense_ctx.candidate(c).group_relevance);
      const std::span<const double> sparse_row =
          sparse_ctx.candidate(c).member_relevance;
      const std::span<const double> dense_row =
          dense_ctx.candidate(c).member_relevance;
      EXPECT_EQ(std::vector<double>(sparse_row.begin(), sparse_row.end()),
                std::vector<double>(dense_row.begin(), dense_row.end()));
    }
    const Selection a =
        std::move(heuristic.Select(sparse_ctx, 6)).ValueOrDie();
    const Selection b = std::move(heuristic.Select(dense_ctx, 6)).ValueOrDie();
    EXPECT_EQ(a.items, b.items) << "seed=" << seed;
  }
}

TEST_F(EndToEndTest, IncrementalDeltaRefreshesTheServedPeerGraph) {
  // The serving wiring of incremental maintenance: a Recommender holds
  // whatever index() snapshot it was given; after an ApplyDelta the next
  // snapshot must serve exactly what a from-scratch build on the post-delta
  // corpus would, while the old snapshot stays valid for in-flight queries.
  RatingSimilarityOptions rs_options;
  rs_options.shift_to_unit_interval = true;
  const RecommenderOptions rec_options = DefaultRecOptions();

  IncrementalPeerGraphOptions inc_options;
  inc_options.similarity = rs_options;
  inc_options.peers.delta = rec_options.peers.delta;
  IncrementalPeerGraph graph =
      std::move(IncrementalPeerGraph::Build(scenario().ratings, inc_options))
          .ValueOrDie();
  const std::shared_ptr<const PeerIndex> before = graph.index();

  // A burst of arrivals: fresh ratings from existing patients plus one
  // brand-new patient who co-rates popular documents.
  RatingDelta delta;
  const UserId newcomer = scenario().ratings.num_users();
  int added = 0;
  for (ItemId i = 0; i < scenario().ratings.num_items() && added < 12; ++i) {
    if (scenario().ratings.ItemDegree(i) < 3) continue;
    ASSERT_TRUE(delta.Add(newcomer, i, static_cast<Rating>(1 + added % 5)).ok());
    const auto column = scenario().ratings.UsersWhoRated(i);
    const UserId existing = column[0].user;
    const Rating flipped =
        scenario().ratings.GetRating(existing, i).value() < 3 ? 5 : 1;
    ASSERT_TRUE(delta.Add(existing, i, flipped).ok());  // an update
    ++added;
  }
  ASSERT_TRUE(graph.ApplyDelta(delta).ok());
  const std::shared_ptr<const PeerIndex> after = graph.index();
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(after->num_users(), scenario().ratings.num_users() + 1);

  // From-scratch reference on the post-delta corpus.
  const PairwiseSimilarityEngine engine(&graph.matrix(), rs_options);
  PeerIndexOptions peer_options;
  peer_options.delta = rec_options.peers.delta;
  const PeerIndex rebuilt =
      std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();

  const Recommender served(&graph.matrix(), after.get(), rec_options);
  const Recommender reference(&graph.matrix(), &rebuilt, rec_options);
  const FairnessHeuristic heuristic;
  for (const uint64_t seed : {7u, 21u}) {
    const Group group = scenario().MakeRandomGroup(4, seed);
    const GroupContext served_ctx = ContextOf(served, group);
    const GroupContext reference_ctx = ContextOf(reference, group);
    ASSERT_EQ(served_ctx.num_candidates(), reference_ctx.num_candidates());
    for (int32_t c = 0; c < reference_ctx.num_candidates(); ++c) {
      EXPECT_EQ(served_ctx.candidate(c).item, reference_ctx.candidate(c).item);
      EXPECT_EQ(served_ctx.candidate(c).group_relevance,
                reference_ctx.candidate(c).group_relevance);
    }
    const Selection a =
        std::move(heuristic.Select(served_ctx, 6)).ValueOrDie();
    const Selection b =
        std::move(heuristic.Select(reference_ctx, 6)).ValueOrDie();
    EXPECT_EQ(a.items, b.items) << "seed=" << seed;
  }
  // The pre-delta snapshot still answers (old population, old lists).
  EXPECT_EQ(before->num_users(), scenario().ratings.num_users());
}

TEST_F(EndToEndTest, PipelinePeerIndexServesFollowUpQueries) {
  // The §IV flow's Job 2 artifact plugs straight back into the serial layer:
  // a follow-up query for the same group through a Recommender over
  // peer_index must reproduce the pipeline's context.
  const Group group = scenario().MakeCohesiveGroup(3, 123);
  PipelineOptions options;
  options.similarity.shift_to_unit_interval = true;
  options.delta = 0.55;
  options.top_k = 8;
  const GroupRecommendationPipeline pipeline(options);
  const PipelineResult mr =
      std::move(pipeline.Run(scenario().ratings, group, 6)).ValueOrDie();
  EXPECT_EQ(mr.peer_index.num_entries(), mr.num_similarity_pairs);

  RecommenderOptions rec_options;
  rec_options.peers.delta = 0.55;
  rec_options.top_k = 8;
  const Recommender recommender(&scenario().ratings, &mr.peer_index,
                                rec_options);
  GroupContextOptions ctx_options;
  ctx_options.top_k = 8;
  const GroupContext replay = ContextOf(recommender, group, ctx_options);

  ASSERT_EQ(replay.num_candidates(), mr.context.num_candidates());
  for (int32_t c = 0; c < replay.num_candidates(); ++c) {
    EXPECT_EQ(replay.candidate(c).item, mr.context.candidate(c).item);
    EXPECT_NEAR(replay.candidate(c).group_relevance,
                mr.context.candidate(c).group_relevance, 1e-9);
  }
}

TEST_F(EndToEndTest, MinVetoNeverExceedsAverageRelevance) {
  const PeerIndex peers = RatingPeers();
  const Recommender recommender(&scenario().ratings, &peers,
                                DefaultRecOptions());
  const Group group = scenario().MakeRandomGroup(4, 17);

  GroupContextOptions min_options;
  min_options.aggregation = AggregationKind::kMinimum;
  GroupContextOptions avg_options;
  avg_options.aggregation = AggregationKind::kAverage;
  const GroupContext min_ctx = ContextOf(recommender, group, min_options);
  const GroupContext avg_ctx = ContextOf(recommender, group, avg_options);
  ASSERT_EQ(min_ctx.num_candidates(), avg_ctx.num_candidates());
  for (int32_t c = 0; c < min_ctx.num_candidates(); ++c) {
    EXPECT_LE(min_ctx.candidate(c).group_relevance,
              avg_ctx.candidate(c).group_relevance + 1e-12);
  }
}

TEST_F(EndToEndTest, CohesiveGroupsAreEasierToSatisfyThanRandom) {
  const PeerIndex peers = RatingPeers();
  const Recommender recommender(&scenario().ratings, &peers,
                                DefaultRecOptions());
  const FairnessHeuristic heuristic;

  double cohesive_satisfaction = 0.0;
  double random_satisfaction = 0.0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    const GroupContext cohesive_ctx =
        ContextOf(recommender, scenario().MakeCohesiveGroup(4, 1000 + t));
    const GroupContext random_ctx =
        ContextOf(recommender, scenario().MakeRandomGroup(4, 2000 + t));
    const Selection cs = std::move(heuristic.Select(cohesive_ctx, 6)).ValueOrDie();
    const Selection rs_sel = std::move(heuristic.Select(random_ctx, 6)).ValueOrDie();
    cohesive_satisfaction +=
        GroupSatisfactionByItems(cohesive_ctx, cs.items).min;
    random_satisfaction +=
        GroupSatisfactionByItems(random_ctx, rs_sel.items).min;
  }
  // Cohesive groups share taste, so the least-satisfied member does better
  // on average (the motivation for fairness-aware selection in
  // heterogeneous groups).
  EXPECT_GE(cohesive_satisfaction, random_satisfaction - 0.5);
}

TEST_F(EndToEndTest, MapReducePipelineAgreesWithSerialOnScenario) {
  const Group group = scenario().MakeCohesiveGroup(3, 77);
  PipelineOptions options;
  options.similarity.shift_to_unit_interval = true;
  options.delta = 0.55;
  options.top_k = 8;
  const GroupRecommendationPipeline pipeline(options);
  const PipelineResult mr =
      std::move(pipeline.Run(scenario().ratings, group, 6)).ValueOrDie();

  // Serial reference: Eq. 2 evaluated once per pair, no moment shuffle.
  RatingSimilarityOptions rs_options;
  rs_options.shift_to_unit_interval = true;
  const RatingSimilarity rs(&scenario().ratings, rs_options);
  const DensePeerAdapter peers = AdapterPeers(rs, 0.55);
  RecommenderOptions rec_options;
  rec_options.peers.delta = 0.55;
  rec_options.top_k = 8;
  const Recommender recommender(&scenario().ratings, &peers, rec_options);
  GroupContextOptions ctx_options;
  ctx_options.top_k = 8;  // must match PipelineOptions::top_k
  const FairnessHeuristic heuristic;
  const GroupContext serial_ctx = ContextOf(recommender, group, ctx_options);
  const Selection serial = std::move(heuristic.Select(serial_ctx, 6)).ValueOrDie();
  EXPECT_EQ(mr.selection.items, serial.items);
}

TEST_F(EndToEndTest, SelectorsRankedByValueOnRealScenario) {
  const PeerIndex peers = RatingPeers();
  const Recommender recommender(&scenario().ratings, &peers,
                                DefaultRecOptions());
  const GroupContext full_ctx =
      ContextOf(recommender, scenario().MakeRandomGroup(4, 31));
  const GroupContext ctx = full_ctx.RestrictToTopM(14);

  const BruteForceSelector brute_force;
  const FairnessHeuristic heuristic;
  const GreedyValueSelector greedy;
  const Selection exact = std::move(brute_force.Select(ctx, 5)).ValueOrDie();
  const Selection h = std::move(heuristic.Select(ctx, 5)).ValueOrDie();
  const Selection g = std::move(greedy.Select(ctx, 5)).ValueOrDie();
  EXPECT_GE(exact.score.value, h.score.value - 1e-9);
  EXPECT_GE(exact.score.value, g.score.value - 1e-9);
}

}  // namespace
}  // namespace fairrec
