// EXT-B ablation: the two Def. 2 aggregation designs, measured.
//
// "Strong user preferences act as a veto" (minimum) vs "satisfying the
// majority" (average): the designs pick different plain top-k sets, so we
// compare those sets via per-member satisfaction. Expected shape: min
// aggregation protects the least-served member (higher min satisfaction) on
// heterogeneous groups, average maximizes the group total (higher mean).
// The fairness-aware selector (Algorithm 1) is shown alongside: its picks
// come from the members' A_u lists, so it lifts min satisfaction under
// *either* design — fairness and least-misery are complementary here.

#include <cstdio>
#include <vector>

#include "cf/recommender.h"
#include "cf/top_k.h"
#include "common/string_util.h"
#include "core/fairness_heuristic.h"
#include "core/group_context.h"
#include "data/scenario.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_index.h"
#include "sim/rating_similarity.h"

using namespace fairrec;

int main() {
  ScenarioConfig config;
  config.num_patients = 300;
  config.num_documents = 200;
  config.num_clusters = 6;
  config.rating_density = 0.08;
  config.seed = 606;
  const Scenario scenario = std::move(BuildScenario(config)).ValueOrDie();

  // Thresholded peers only -> serve them from the engine-built sparse peer
  // graph (no per-member O(U) similarity scans).
  RatingSimilarityOptions sim_options;
  sim_options.shift_to_unit_interval = true;
  const PairwiseSimilarityEngine engine(&scenario.ratings, sim_options);
  PeerIndexOptions peer_options;
  peer_options.delta = 0.55;
  const PeerIndex peers =
      std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();
  RecommenderOptions rec_options;
  rec_options.peers.delta = 0.55;
  rec_options.top_k = 10;
  const Recommender recommender(&scenario.ratings, &peers, rec_options);

  const FairnessHeuristic heuristic;
  const int32_t z = 6;
  const int trials = 8;

  AsciiTable table({"group kind", "|G|", "selection", "Aggr", "min sat",
                    "mean sat", "fairness"});
  for (const bool cohesive : {true, false}) {
    for (const int32_t g : {3, 6}) {
      for (const auto kind :
           {AggregationKind::kMinimum, AggregationKind::kAverage}) {
        double plain_min = 0.0;
        double plain_mean = 0.0;
        double plain_fair = 0.0;
        double fair_min = 0.0;
        double fair_mean = 0.0;
        double fair_fair = 0.0;
        for (int t = 0; t < trials; ++t) {
          const Group group = cohesive
                                  ? scenario.MakeCohesiveGroup(g, 300 + t)
                                  : scenario.MakeRandomGroup(g, 400 + t);
          GroupContextOptions options;
          options.aggregation = kind;
          options.top_k = 10;
          const auto members =
              std::move(recommender.RelevanceForGroup(group)).ValueOrDie();
          const GroupContext ctx =
              std::move(GroupContext::Build(members, options)).ValueOrDie();

          // Plain Def. 2 group top-z: the aggregation picks the set.
          std::vector<ScoredItem> scored;
          for (int32_t c = 0; c < ctx.num_candidates(); ++c) {
            const GroupCandidate candidate = ctx.candidate(c);
            scored.push_back({candidate.item, candidate.group_relevance});
          }
          std::vector<ItemId> plain_items;
          for (const ScoredItem& s : SelectTopK(scored, z)) {
            plain_items.push_back(s.item);
          }
          const SatisfactionStats ps = GroupSatisfactionByItems(ctx, plain_items);
          plain_min += ps.min;
          plain_mean += ps.mean;
          plain_fair += EvaluateSelectionByItems(ctx, plain_items).fairness;

          // Fairness-aware top-z (Algorithm 1) under the same design.
          const Selection s = std::move(heuristic.Select(ctx, z)).ValueOrDie();
          const SatisfactionStats fs = GroupSatisfactionByItems(ctx, s.items);
          fair_min += fs.min;
          fair_mean += fs.mean;
          fair_fair += s.score.fairness;
        }
        const std::string kind_name(AggregationKindToString(kind));
        table.AddRow({cohesive ? "cohesive" : "random", std::to_string(g),
                      "plain top-z", kind_name,
                      FormatDouble(plain_min / trials, 3),
                      FormatDouble(plain_mean / trials, 3),
                      FormatDouble(plain_fair / trials, 2)});
        table.AddRow({cohesive ? "cohesive" : "random", std::to_string(g),
                      "algorithm 1", kind_name,
                      FormatDouble(fair_min / trials, 3),
                      FormatDouble(fair_mean / trials, 3),
                      FormatDouble(fair_fair / trials, 2)});
      }
    }
  }
  std::printf("Def. 2 aggregation designs x selection policy, averaged over "
              "%d groups each (z=%d)\n\n%s",
              trials, z, table.ToString().c_str());
  std::printf(
      "\nexpected shape: plain top-z loses fairness as groups grow larger and\n"
      "more heterogeneous (random |G|=6 is the worst cell), while Algorithm 1\n"
      "holds fairness at 1.0 under either Def. 2 design (Prop. 1) and lifts\n"
      "the worst member's satisfaction where plain top-z under-serves them.\n");
  return 0;
}
