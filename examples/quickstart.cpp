// Quickstart: the minimal FairRec flow.
//
// 1. Generate a synthetic world (ontology + cohort + corpus + ratings).
// 2. Recommend documents to a single patient (§III-A of the paper).
// 3. Recommend a fair set of documents to a caregiver's patient group
//    (§III-C/D, Algorithm 1).
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "cf/recommender.h"
#include "core/fairness_heuristic.h"
#include "core/group_context.h"
#include "data/scenario.h"
#include "ratings/dataset.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_index.h"
#include "sim/rating_similarity.h"

using namespace fairrec;  // examples only; library code never does this

int main() {
  // --- 1. A small synthetic world ------------------------------------
  ScenarioConfig config;
  config.num_patients = 200;
  config.num_documents = 150;
  config.num_clusters = 5;
  config.rating_density = 0.1;
  config.seed = 7;
  const Scenario scenario = std::move(BuildScenario(config)).ValueOrDie();
  const DatasetStats stats = Dataset{scenario.ratings}.ComputeStats();
  std::printf("world: %d patients, %d documents, %lld ratings (density %.1f%%)\n",
              stats.num_users, stats.num_items,
              static_cast<long long>(stats.num_ratings), 100.0 * stats.density);

  // --- 2. Single-user recommendations --------------------------------
  // simU = Pearson over co-rated documents (Eq. 2), shifted to [0, 1] so the
  // peer threshold delta and Eq. 1's weights are non-negative. The engine
  // builds the Def. 1 peer graph (all pairs with simU >= delta) once.
  RatingSimilarityOptions sim_options;
  sim_options.shift_to_unit_interval = true;
  PeerIndexOptions peer_options;
  peer_options.delta = 0.55;  // Def. 1 threshold
  const PairwiseSimilarityEngine engine(&scenario.ratings, sim_options);
  const PeerIndex peers =
      std::move(engine.BuildPeerIndex(peer_options)).ValueOrDie();

  RecommenderOptions rec_options;
  rec_options.peers.delta = peer_options.delta;
  rec_options.top_k = 5;  // |A_u|
  const Recommender recommender(&scenario.ratings, &peers, rec_options);

  const UserId patient = 3;
  const auto personal = std::move(recommender.RecommendForUser(patient)).ValueOrDie();
  std::printf("\ntop-%zu documents for patient %d (Eq. 1 relevance):\n",
              personal.size(), patient);
  for (const ScoredItem& s : personal) {
    std::printf("  %-45s  relevance %.2f\n",
                scenario.corpus.documents[static_cast<size_t>(s.item)].title.c_str(),
                s.score);
  }

  // --- 3. Fair group recommendations ---------------------------------
  // A caregiver is responsible for 4 patients from one condition cluster.
  const Group group = scenario.MakeCohesiveGroup(4, 99);
  std::printf("\ncaregiver group: patients");
  for (const UserId u : group) std::printf(" %d", u);
  std::printf("\n");

  // Eq. 1 per member over the items no member rated, aggregated into group
  // relevance (Def. 2), then Algorithm 1 picks a fair top-z.
  const auto members =
      std::move(recommender.RelevanceForGroup(group)).ValueOrDie();
  const GroupContext context =
      std::move(GroupContext::Build(members)).ValueOrDie();
  const FairnessHeuristic algorithm1;  // the paper's Algorithm 1
  const int32_t z = 6;
  const Selection selection =
      std::move(algorithm1.Select(context, z)).ValueOrDie();

  std::printf("fairness-aware top-%d (fairness %.2f, value %.2f):\n", z,
              selection.score.fairness, selection.score.value);
  for (const ItemId item : selection.items) {
    std::printf("  %s\n",
                scenario.corpus.documents[static_cast<size_t>(item)].title.c_str());
  }
  // Proposition 1: z >= |G| guarantees fairness 1.0.
  std::printf("\nProposition 1 check: z=%d >= |G|=%zu -> fairness %.2f\n", z,
              group.size(), selection.score.fairness);
  return 0;
}
