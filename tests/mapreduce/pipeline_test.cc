#include "mapreduce/pipeline.h"

#include <cmath>

#include <gtest/gtest.h>

#include "cf/recommender.h"
#include "core/group_context.h"
#include "data/scenario.h"
#include "sim/peer_adapter.h"
#include "sim/rating_similarity.h"

namespace fairrec {
namespace {

ScenarioConfig SmallScenario() {
  ScenarioConfig config;
  config.num_patients = 60;
  config.num_documents = 50;
  config.num_clusters = 3;
  config.rating_density = 0.25;
  config.seed = 777;
  return config;
}

PipelineOptions DefaultPipelineOptions() {
  PipelineOptions options;
  options.similarity.shift_to_unit_interval = true;
  options.delta = 0.55;
  options.top_k = 5;
  options.aggregation = AggregationKind::kAverage;
  return options;
}

/// The serial reference for the whole §IV flow. The returned context owns all
/// its data, so the locals may die at scope exit.
GroupContext SerialContext(const RatingMatrix& matrix, const Group& group,
                           const PipelineOptions& options) {
  const RatingSimilarity similarity(&matrix, options.similarity);
  PeerIndexOptions peer_options;
  peer_options.delta = options.delta;
  const DensePeerAdapter peers(similarity, matrix.num_users(), peer_options);
  RecommenderOptions rec_options;
  rec_options.peers.delta = options.delta;
  rec_options.top_k = options.top_k;
  const Recommender recommender(&matrix, &peers, rec_options);
  GroupContextOptions ctx_options;
  ctx_options.aggregation = options.aggregation;
  ctx_options.top_k = options.top_k;
  ctx_options.require_all_members = options.require_all_members;
  const auto members =
      std::move(recommender.RelevanceForGroup(group)).ValueOrDie();
  return std::move(GroupContext::Build(members, ctx_options)).ValueOrDie();
}

TEST(PipelineTest, Fig2EquivalenceWithSerialPath) {
  const Scenario scenario = std::move(BuildScenario(SmallScenario())).ValueOrDie();
  const Group group = scenario.MakeCohesiveGroup(3, 1);
  const PipelineOptions options = DefaultPipelineOptions();

  const GroupRecommendationPipeline pipeline(options);
  const PipelineResult mr =
      std::move(pipeline.Run(scenario.ratings, group, 6)).ValueOrDie();
  const GroupContext serial = SerialContext(scenario.ratings, group, options);

  // Same candidate universe.
  ASSERT_EQ(mr.context.num_candidates(), serial.num_candidates());
  for (int32_t c = 0; c < serial.num_candidates(); ++c) {
    EXPECT_EQ(mr.context.candidate(c).item, serial.candidate(c).item);
    EXPECT_NEAR(mr.context.candidate(c).group_relevance,
                serial.candidate(c).group_relevance, 1e-9);
    for (int32_t m = 0; m < serial.group_size(); ++m) {
      const double a =
          mr.context.candidate(c).member_relevance[static_cast<size_t>(m)];
      const double b =
          serial.candidate(c).member_relevance[static_cast<size_t>(m)];
      EXPECT_NEAR(a, b, 1e-9) << "candidate " << c << " member " << m;
    }
  }
  // Same A_u sets.
  for (int32_t m = 0; m < serial.group_size(); ++m) {
    ASSERT_EQ(mr.context.MemberTopK(m).size(), serial.MemberTopK(m).size());
    for (size_t i = 0; i < serial.MemberTopK(m).size(); ++i) {
      EXPECT_EQ(mr.context.MemberTopK(m)[i].item, serial.MemberTopK(m)[i].item);
    }
  }
}

TEST(PipelineTest, SelectionMatchesCentralizedAlgorithm1) {
  const Scenario scenario = std::move(BuildScenario(SmallScenario())).ValueOrDie();
  const Group group = scenario.MakeCohesiveGroup(3, 2);
  const PipelineOptions options = DefaultPipelineOptions();
  const GroupRecommendationPipeline pipeline(options);
  const PipelineResult mr =
      std::move(pipeline.Run(scenario.ratings, group, 6)).ValueOrDie();

  const GroupContext serial = SerialContext(scenario.ratings, group, options);
  const FairnessHeuristic heuristic(options.heuristic);
  const Selection expected = std::move(heuristic.Select(serial, 6)).ValueOrDie();
  EXPECT_EQ(mr.selection.items, expected.items);
  EXPECT_NEAR(mr.selection.score.value, expected.score.value, 1e-9);
}

TEST(PipelineTest, Proposition1HoldsOnPipelineOutput) {
  const Scenario scenario = std::move(BuildScenario(SmallScenario())).ValueOrDie();
  const Group group = scenario.MakeCohesiveGroup(4, 3);
  const GroupRecommendationPipeline pipeline(DefaultPipelineOptions());
  // z = 8 >= |G| = 4.
  const PipelineResult result =
      std::move(pipeline.Run(scenario.ratings, group, 8)).ValueOrDie();
  ASSERT_GE(result.context.num_candidates(), 8);
  EXPECT_DOUBLE_EQ(result.selection.score.fairness, 1.0);
}

TEST(PipelineTest, StatsAndDiagnosticsPopulated) {
  const Scenario scenario = std::move(BuildScenario(SmallScenario())).ValueOrDie();
  const Group group = scenario.MakeCohesiveGroup(3, 4);
  const GroupRecommendationPipeline pipeline(DefaultPipelineOptions());
  const PipelineResult result =
      std::move(pipeline.Run(scenario.ratings, group, 4)).ValueOrDie();
  EXPECT_GT(result.job1_stats.input_records, 0);
  EXPECT_GT(result.job1_stats.intermediate_records, 0);
  EXPECT_GT(result.num_candidate_items, 0);
  EXPECT_GT(result.num_similarity_pairs, 0);
  EXPECT_EQ(result.selection.items.size(), 4u);
}

TEST(PipelineTest, ThreadCountInvariance) {
  const Scenario scenario = std::move(BuildScenario(SmallScenario())).ValueOrDie();
  const Group group = scenario.MakeCohesiveGroup(3, 5);
  PipelineOptions serial_options = DefaultPipelineOptions();
  serial_options.mapreduce.num_workers = 1;
  serial_options.mapreduce.num_map_shards = 1;
  serial_options.mapreduce.num_reduce_partitions = 1;
  PipelineOptions parallel_options = DefaultPipelineOptions();
  parallel_options.mapreduce.num_workers = 4;
  parallel_options.mapreduce.num_map_shards = 6;
  parallel_options.mapreduce.num_reduce_partitions = 3;

  const GroupRecommendationPipeline a(serial_options);
  const GroupRecommendationPipeline b(parallel_options);
  const PipelineResult ra =
      std::move(a.Run(scenario.ratings, group, 5)).ValueOrDie();
  const PipelineResult rb =
      std::move(b.Run(scenario.ratings, group, 5)).ValueOrDie();
  EXPECT_EQ(ra.selection.items, rb.selection.items);
  ASSERT_EQ(ra.context.num_candidates(), rb.context.num_candidates());
}

TEST(PipelineTest, RejectsBadGroup) {
  const Scenario scenario = std::move(BuildScenario(SmallScenario())).ValueOrDie();
  const GroupRecommendationPipeline pipeline(DefaultPipelineOptions());
  EXPECT_TRUE(
      pipeline.Run(scenario.ratings, {}, 4).status().IsInvalidArgument());
  EXPECT_TRUE(pipeline.Run(scenario.ratings, {99999}, 4)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace fairrec
