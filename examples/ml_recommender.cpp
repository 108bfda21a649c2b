// Machine-learning recommender: the paper's §VIII future work, realized.
//
// Trains a matrix-factorization model on the rating log, validates it on a
// held-out split against the Eq. 1 collaborative estimator, then swaps it
// into the *same* fairness-aware group pipeline — demonstrating that the
// top-z machinery (Def. 2/3, Algorithm 1) is estimator-agnostic.
//
// Build & run:  ./build/examples/ml_recommender

#include <cstdio>
#include <unordered_map>

#include "cf/peer_finder.h"
#include "cf/recommender.h"
#include "cf/relevance_estimator.h"
#include "common/string_util.h"
#include "core/fairness_heuristic.h"
#include "core/group_context.h"
#include "data/scenario.h"
#include "eval/accuracy.h"
#include "eval/table.h"
#include "mf/matrix_factorization.h"
#include "ratings/splits.h"
#include "sim/peer_adapter.h"
#include "sim/rating_similarity.h"

using namespace fairrec;  // examples only

int main() {
  ScenarioConfig config;
  config.num_patients = 350;
  config.num_documents = 220;
  config.num_clusters = 6;
  config.rating_density = 0.1;
  config.seed = 404;
  const Scenario scenario = std::move(BuildScenario(config)).ValueOrDie();

  // ---- 1. Held-out validation ----------------------------------------
  const TrainTestSplit split =
      std::move(RandomHoldoutSplit(scenario.ratings, 0.2, 1)).ValueOrDie();
  std::printf("training on %lld ratings, validating on %zu held-out ones\n",
              static_cast<long long>(split.train.num_ratings()),
              split.test.size());

  MfConfig mf_config;
  mf_config.num_factors = 16;
  mf_config.num_epochs = 40;
  std::vector<double> epoch_rmse;
  const auto model = std::move(MatrixFactorizationModel::Train(
                                   split.train, mf_config, &epoch_rmse))
                         .ValueOrDie();
  std::printf("MF training: train RMSE %.3f (epoch 1) -> %.3f (epoch %zu)\n",
              epoch_rmse.front(), epoch_rmse.back(), epoch_rmse.size());

  RatingSimilarityOptions sim_options;
  sim_options.shift_to_unit_interval = true;
  const RatingSimilarity similarity(&split.train, sim_options);
  PeerIndexOptions peer_options;
  peer_options.delta = 0.55;
  const DensePeerAdapter peer_graph(similarity, split.train.num_users(),
                                    peer_options);
  PeerFinderOptions finder_options;
  finder_options.delta = peer_options.delta;
  const PeerFinder finder(&peer_graph, finder_options);
  const RelevanceEstimator cf_estimator(&split.train);
  std::unordered_map<UserId, std::vector<Peer>> peers;

  AsciiTable accuracy({"estimator", "RMSE", "MAE", "coverage"});
  const AccuracyStats mf_stats = EvaluatePredictor(
      split.test, [&model](UserId u, ItemId i) { return model.Predict(u, i); });
  const AccuracyStats cf_stats =
      EvaluatePredictor(split.test, [&](UserId u, ItemId i) {
        auto [it, inserted] = peers.try_emplace(u);
        if (inserted) it->second = finder.FindPeers(u);
        return cf_estimator.Estimate(it->second, i);
      });
  accuracy.AddRow({"matrix factorization", FormatDouble(mf_stats.rmse, 3),
                   FormatDouble(mf_stats.mae, 3),
                   FormatDouble(mf_stats.coverage, 3)});
  accuracy.AddRow({"Eq. 1 collaborative", FormatDouble(cf_stats.rmse, 3),
                   FormatDouble(cf_stats.mae, 3),
                   FormatDouble(cf_stats.coverage, 3)});
  std::printf("\nheld-out accuracy:\n%s", accuracy.ToString().c_str());

  // ---- 2. The same fairness-aware flow, MF underneath -----------------
  const Group group = scenario.MakeRandomGroup(4, 21);
  const int32_t z = 6;
  GroupContextOptions ctx_options;
  ctx_options.top_k = 10;
  const auto members =
      std::move(model.RelevanceForGroup(scenario.ratings, group)).ValueOrDie();
  const GroupContext context =
      std::move(GroupContext::Build(members, ctx_options)).ValueOrDie();
  const FairnessHeuristic algorithm1;
  const Selection selection =
      std::move(algorithm1.Select(context, z)).ValueOrDie();

  std::printf("\nfairness-aware top-%d for a heterogeneous group, powered by "
              "MF relevance:\n", z);
  for (const ItemId item : selection.items) {
    std::printf("  %s\n",
                scenario.corpus.documents[static_cast<size_t>(item)].title.c_str());
  }
  std::printf("fairness %.2f (Prop. 1 holds regardless of the estimator: "
              "z=%d >= |G|=%zu), value %.2f\n",
              selection.score.fairness, z, group.size(), selection.score.value);
  return 0;
}
