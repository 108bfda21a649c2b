// Caregiver scenario: the full Fig. 1 architecture, end to end.
//
// A caregiver is responsible for a *heterogeneous* group of patients (mixed
// condition clusters). We contrast:
//   * plain group top-k (Def. 2) under min ("veto") vs average aggregation,
//   * fairness-aware top-z via Algorithm 1, the greedy value baseline, and
//     the exact brute force,
// and report per-member satisfaction so the fairness effect is visible.
//
// Build & run:  ./build/examples/caregiver_group

#include <cstdio>
#include <vector>

#include "cf/recommender.h"
#include "core/brute_force.h"
#include "core/fairness_heuristic.h"
#include "core/greedy_selector.h"
#include "core/group_context.h"
#include "data/scenario.h"
#include "eval/metrics.h"
#include "common/string_util.h"
#include "eval/table.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_index.h"
#include "sim/rating_similarity.h"

using namespace fairrec;  // examples only

namespace {

void ReportSelection(const char* name, const GroupContext& context,
                     const Selection& selection, const Scenario& scenario) {
  std::printf("\n%s: fairness %.2f, relevance sum %.2f, value %.2f\n", name,
              selection.score.fairness, selection.score.relevance_sum,
              selection.score.value);
  for (const ItemId item : selection.items) {
    std::printf("    %s\n",
                scenario.corpus.documents[static_cast<size_t>(item)].title.c_str());
  }
  const SatisfactionStats sat = GroupSatisfactionByItems(context, selection.items);
  std::printf("    member satisfaction: min %.2f  mean %.2f  max %.2f\n",
              sat.min, sat.mean, sat.max);
}

/// Plain group top-k (Def. 2, no fairness): the first k candidates by group
/// relevance (ties: ascending item id).
std::vector<ScoredItem> TopKForGroup(const GroupContext& context, size_t k) {
  std::vector<ScoredItem> top;
  for (const int32_t c : context.CandidatesByGroupRelevance()) {
    if (top.size() == k) break;
    const GroupCandidate candidate = context.candidate(c);
    top.push_back({candidate.item, candidate.group_relevance});
  }
  return top;
}

}  // namespace

int main() {
  ScenarioConfig config;
  config.num_patients = 300;
  config.num_documents = 200;
  config.num_clusters = 6;
  config.rating_density = 0.1;
  config.seed = 2017;
  const Scenario scenario = std::move(BuildScenario(config)).ValueOrDie();

  RatingSimilarityOptions sim_options;
  sim_options.shift_to_unit_interval = true;
  RecommenderOptions rec_options;
  rec_options.peers.delta = 0.55;
  rec_options.top_k = 8;

  // Sparse serving path: the sufficient-statistics engine emits the Def. 1
  // peer graph directly, so no dense U x U similarity structure is ever
  // built for this flow.
  PeerIndexOptions peer_options;
  peer_options.delta = rec_options.peers.delta;
  const PairwiseSimilarityEngine engine(&scenario.ratings, sim_options);
  const PeerIndex peers = std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();
  const Recommender recommender(&scenario.ratings, &peers, rec_options);

  // A heterogeneous group: patients drawn from different clusters — the case
  // where one member can be "the least satisfied user in the group for all
  // items" (§III-C) and fairness-aware selection matters.
  const Group group = scenario.MakeRandomGroup(4, 5);
  std::printf("caregiver group (heterogeneous):\n");
  for (const UserId u : group) {
    std::printf("  patient %3d  (condition cluster %d)\n", u,
                scenario.cohort.cluster_of_user[static_cast<size_t>(u)]);
  }

  // ---- Def. 2: min vs average aggregation, plain top-k ---------------
  // Eq. 1 relevance per member, then one Def. 2 context per design.
  const auto members =
      std::move(recommender.RelevanceForGroup(group)).ValueOrDie();
  GroupContextOptions avg_options;
  avg_options.top_k = 8;
  GroupContextOptions min_options = avg_options;
  min_options.aggregation = AggregationKind::kMinimum;
  const GroupContext context =
      std::move(GroupContext::Build(members, avg_options)).ValueOrDie();
  const GroupContext min_context =
      std::move(GroupContext::Build(members, min_options)).ValueOrDie();

  AsciiTable table(
      {"rank", "avg: document", "avg rel", "min: document", "min rel"});
  const auto avg_top = TopKForGroup(context, 5);
  const auto min_top = TopKForGroup(min_context, 5);
  for (size_t i = 0; i < 5 && i < avg_top.size() && i < min_top.size(); ++i) {
    table.AddRow(
        {std::to_string(i + 1),
         scenario.corpus.documents[static_cast<size_t>(avg_top[i].item)].title,
         FormatDouble(avg_top[i].score, 2),
         scenario.corpus.documents[static_cast<size_t>(min_top[i].item)].title,
         FormatDouble(min_top[i].score, 2)});
  }
  std::printf("\nplain group top-5 under the two Def. 2 designs:\n%s",
              table.ToString().c_str());

  // ---- §III-D: fairness-aware top-z selectors ------------------------
  const GroupContext pool = context.RestrictToTopM(20);
  const int32_t z = 6;

  const FairnessHeuristic algorithm1;
  const GreedyValueSelector greedy;
  const BruteForceSelector brute_force;
  ReportSelection("Algorithm 1 (paper heuristic)", pool,
                  std::move(algorithm1.Select(pool, z)).ValueOrDie(), scenario);
  ReportSelection("Greedy value baseline", pool,
                  std::move(greedy.Select(pool, z)).ValueOrDie(), scenario);
  ReportSelection("Brute force (exact optimum over C(20,6))", pool,
                  std::move(brute_force.Select(pool, z)).ValueOrDie(), scenario);

  // ---- The unfairness of plain top-k, quantified ----------------------
  std::vector<ItemId> plain_items;
  for (const ScoredItem& s : TopKForGroup(context, z)) {
    plain_items.push_back(s.item);
  }
  const ValueBreakdown plain_score = EvaluateSelectionByItems(context, plain_items);
  const SatisfactionStats plain_sat = GroupSatisfactionByItems(context, plain_items);
  std::printf(
      "\nplain top-%d (no fairness): fairness %.2f, min satisfaction %.2f\n", z,
      plain_score.fairness, plain_sat.min);
  std::printf(
      "=> fairness-aware selection protects the least-served member of a\n"
      "   heterogeneous group at a small relevance cost (§III-C's motivation).\n");
  return 0;
}
