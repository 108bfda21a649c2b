// MapReduce pipeline walkthrough: the paper's §IV implementation.
//
// Runs the three jobs of Fig. 2 over a synthetic rating log and reports what
// each job produced, then finishes with the centralized Algorithm 1 step —
// and cross-checks the whole flow against the serial reference path.
//
// Build & run:  ./build/examples/mapreduce_pipeline

#include <cstdio>

#include "cf/recommender.h"
#include "common/stopwatch.h"
#include "core/group_context.h"
#include "data/scenario.h"
#include "eval/table.h"
#include "mapreduce/pipeline.h"
#include "mapreduce/topk_mapreduce.h"
#include "sim/peer_adapter.h"
#include "sim/rating_similarity.h"

using namespace fairrec;  // examples only

int main() {
  ScenarioConfig config;
  config.num_patients = 400;
  config.num_documents = 250;
  config.num_clusters = 6;
  config.rating_density = 0.08;
  config.seed = 1337;
  const Scenario scenario = std::move(BuildScenario(config)).ValueOrDie();
  const Group group = scenario.MakeCohesiveGroup(4, 11);

  PipelineOptions options;
  options.similarity.shift_to_unit_interval = true;
  options.delta = 0.55;
  options.top_k = 8;
  options.aggregation = AggregationKind::kAverage;

  std::printf("input: %lld rating triples, group of %zu patients, delta=%.2f\n",
              static_cast<long long>(scenario.ratings.num_ratings()),
              group.size(), options.delta);

  const GroupRecommendationPipeline pipeline(options);
  Stopwatch watch;
  const PipelineResult result =
      std::move(pipeline.Run(scenario.ratings, group, 6)).ValueOrDie();
  const double total_ms = watch.ElapsedMillis();

  AsciiTable jobs({"job", "input records", "intermediate", "output"});
  auto add_job = [&jobs](const char* name, const MapReduceStats& s) {
    jobs.AddRow({name, std::to_string(s.input_records),
                 std::to_string(s.intermediate_records),
                 std::to_string(s.output_records)});
  };
  add_job("Job 1: moment stats + candidates", result.job1_stats);
  add_job("Job 2: merge moments, threshold", result.job2_stats);
  add_job("Job 3: user & group relevance", result.job3_stats);
  std::printf("\n%s", jobs.ToString().c_str());
  std::printf(
      "\ncandidate items (unrated by all members): %lld\n"
      "qualifying (member, peer) pairs:            %lld\n"
      "moment records shuffled to Job 2:           %lld (vs %lld rating-pair "
      "records in the retired stream)\n"
      "pipeline wall time:                         %.1f ms\n",
      static_cast<long long>(result.num_candidate_items),
      static_cast<long long>(result.num_similarity_pairs),
      static_cast<long long>(result.num_moment_records),
      static_cast<long long>(result.num_co_rating_records), total_ms);

  std::printf("\nAlgorithm 1 (centralized, as §IV prescribes) selected:\n");
  for (const ItemId item : result.selection.items) {
    std::printf("  %s\n",
                scenario.corpus.documents[static_cast<size_t>(item)].title.c_str());
  }
  std::printf("fairness %.2f, value %.2f\n", result.selection.score.fairness,
              result.selection.score.value);

  // ---- Cross-check against the serial reference ----------------------
  // Peers straight from Eq. 2, evaluated once per pair (no moment shuffle).
  RatingSimilarityOptions rs_options;
  rs_options.shift_to_unit_interval = true;
  const RatingSimilarity similarity(&scenario.ratings, rs_options);
  PeerIndexOptions peer_options;
  peer_options.delta = options.delta;
  const DensePeerAdapter peers(similarity, scenario.ratings.num_users(),
                               peer_options);
  RecommenderOptions rec_options;
  rec_options.peers.delta = options.delta;
  rec_options.top_k = options.top_k;
  const Recommender recommender(&scenario.ratings, &peers, rec_options);
  GroupContextOptions ctx_options;
  ctx_options.top_k = options.top_k;
  const FairnessHeuristic heuristic;
  const auto members =
      std::move(recommender.RelevanceForGroup(group)).ValueOrDie();
  const GroupContext serial_ctx =
      std::move(GroupContext::Build(members, ctx_options)).ValueOrDie();
  const Selection serial = std::move(heuristic.Select(serial_ctx, 6)).ValueOrDie();
  std::printf("\nserial reference selected the %s set of documents.\n",
              serial.items == result.selection.items ? "SAME" : "DIFFERENT");

  // ---- Bonus: the distributed top-k of [5] ---------------------------
  std::vector<ScoredItem> group_scores;
  for (int32_t c = 0; c < result.context.num_candidates(); ++c) {
    const GroupCandidate candidate = result.context.candidate(c);
    group_scores.push_back({candidate.item, candidate.group_relevance});
  }
  const auto top = MapReduceTopK(group_scores, 5);
  std::printf("\ndistributed top-5 by group relevance (MapReduce top-k [5]):\n");
  for (const ScoredItem& s : top) {
    std::printf("  %-45s  %.3f\n",
                scenario.corpus.documents[static_cast<size_t>(s.item)].title.c_str(),
                s.score);
  }
  return 0;
}
