// Proposition 1 series: fairness(G, D) as a function of z for several group
// sizes, for both selectors.
//
// The paper states Prop. 1 (z >= |G| implies fairness 1 for Algorithm 1) and
// observes identical fairness for the brute force in Table II. This bench
// regenerates the underlying series: fairness ramps up with z and clamps at
// 1.0 exactly at z = |G| for Algorithm 1; the exact optimum reaches 1.0 at
// or before the same point on these workloads.

#include <cstdio>
#include <vector>

#include "cf/recommender.h"
#include "core/brute_force.h"
#include "core/fairness_heuristic.h"
#include "core/group_context.h"
#include "data/scenario.h"
#include "common/string_util.h"
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
  config.seed = 99;
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
  const BruteForceSelector brute_force;
  const std::vector<int32_t> group_sizes{2, 4, 6, 8};
  const std::vector<int32_t> z_values{1, 2, 3, 4, 6, 8, 12, 16, 20, 24};
  const int32_t m = 24;  // candidate pool per group

  std::printf("fairness(G, D) vs z (m=%d candidates; heterogeneous groups)\n\n",
              m);
  AsciiTable table({"|G|", "z", "heuristic fairness", "heuristic value",
                    "exact fairness", "exact value", "z >= |G|"});
  bool prop1_holds = true;
  for (const int32_t g : group_sizes) {
    const Group group = scenario.MakeRandomGroup(g, 1000 + g);
    const auto members =
        std::move(recommender.RelevanceForGroup(group)).ValueOrDie();
    const GroupContext full =
        std::move(GroupContext::Build(members)).ValueOrDie();
    const GroupContext pool = full.RestrictToTopM(m);
    for (const int32_t z : z_values) {
      if (z > m) continue;
      const Selection h = std::move(heuristic.Select(pool, z)).ValueOrDie();
      // The brute force stays tractable: C(24, 12) ~ 2.7M worst case.
      const Selection e = std::move(brute_force.Select(pool, z)).ValueOrDie();
      table.AddRow({std::to_string(g), std::to_string(z),
                    FormatDouble(h.score.fairness, 3),
                    FormatDouble(h.score.value, 2),
                    FormatDouble(e.score.fairness, 3),
                    FormatDouble(e.score.value, 2),
                    z >= g ? "yes" : "no"});
      if (z >= g && h.score.fairness != 1.0) prop1_holds = false;
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nshape check — Prop. 1 (heuristic fairness == 1 whenever "
              "z >= |G|): %s\n",
              prop1_holds ? "YES" : "NO");
  return prop1_holds ? 0 : 1;
}
