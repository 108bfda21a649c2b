// Fig. 2 behavioural reproduction: the three-job MapReduce pipeline.
//
// The paper's Fig. 2 is pseudocode, not a measurement; this bench validates
// the dataflow *behaviourally* (pipeline output must equal the serial
// reference exactly) and reports how the three jobs scale with the rating
// log size and the worker count.

#include <cstdio>
#include <vector>

#include "cf/recommender.h"
#include "common/stopwatch.h"
#include "core/group_context.h"
#include "data/scenario.h"
#include "common/string_util.h"
#include "eval/table.h"
#include "mapreduce/pipeline.h"
#include "sim/peer_adapter.h"
#include "sim/rating_similarity.h"

using namespace fairrec;

namespace {

/// The serial reference: Eq. 2 evaluated once per pair (no moment shuffle),
/// then the in-memory Eq. 1 -> Def. 2 -> Algorithm 1 chain.
Selection SerialSelection(const Scenario& scenario, const Group& group,
                          const PipelineOptions& options, int32_t z) {
  const RatingSimilarity similarity(&scenario.ratings, options.similarity);
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
  ctx_options.aggregation = options.aggregation;
  const auto members =
      std::move(recommender.RelevanceForGroup(group)).ValueOrDie();
  const GroupContext ctx =
      std::move(GroupContext::Build(members, ctx_options)).ValueOrDie();
  const FairnessHeuristic heuristic;
  return std::move(heuristic.Select(ctx, z)).ValueOrDie();
}

}  // namespace

int main() {
  AsciiTable table({"users", "ratings", "workers", "job1 interm.", "pairs>=delta",
                    "candidates", "pipeline ms", "== serial"});
  bool all_equal = true;

  for (const int32_t users : {200, 400, 800}) {
    ScenarioConfig config;
    config.num_patients = users;
    config.num_documents = 250;
    config.num_clusters = 6;
    config.rating_density = 0.08;
    config.seed = 4242;
    const Scenario scenario = std::move(BuildScenario(config)).ValueOrDie();
    const Group group = scenario.MakeCohesiveGroup(4, 1);

    PipelineOptions options;
    options.similarity.shift_to_unit_interval = true;
    options.delta = 0.55;
    options.top_k = 10;

    const Selection serial = SerialSelection(scenario, group, options, 8);

    for (const size_t workers : {1u, 2u, 4u}) {
      options.mapreduce.num_workers = workers;
      options.mapreduce.num_map_shards = workers * 2;
      options.mapreduce.num_reduce_partitions = workers * 2;
      const GroupRecommendationPipeline pipeline(options);

      Stopwatch watch;
      const PipelineResult result =
          std::move(pipeline.Run(scenario.ratings, group, 8)).ValueOrDie();
      const double ms = watch.ElapsedMillis();
      const bool equal = result.selection.items == serial.items;
      all_equal = all_equal && equal;

      table.AddRow(
          {std::to_string(users),
           std::to_string(scenario.ratings.num_ratings()),
           std::to_string(workers),
           std::to_string(result.job1_stats.intermediate_records),
           std::to_string(result.num_similarity_pairs),
           std::to_string(result.num_candidate_items), FormatDouble(ms, 1),
           equal ? "yes" : "NO"});
    }
  }
  std::printf("Fig. 2 pipeline: scaling + serial equivalence\n\n%s",
              table.ToString().c_str());
  std::printf("\nshape check — MapReduce output identical to the serial "
              "reference on every configuration: %s\n",
              all_equal ? "YES" : "NO");
  return all_equal ? 0 : 1;
}
