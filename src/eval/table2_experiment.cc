#include "eval/table2_experiment.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cf/recommender.h"
#include "common/string_util.h"
#include "core/brute_force.h"
#include "core/group_context.h"
#include "core/selector_registry.h"
#include "eval/fairness_metrics.h"
#include "eval/table.h"
#include "eval/timing.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_index.h"
#include "sim/rating_similarity.h"

namespace fairrec {

Result<Table2Result> RunTable2Experiment(const Table2Config& config) {
  FAIRREC_ASSIGN_OR_RETURN(const Scenario scenario,
                           BuildScenario(config.scenario));
  const Group group = scenario.MakeGroup(config.group_shape, config.group_size,
                                         config.scenario.seed + 99);
  if (static_cast<int32_t>(group.size()) != config.group_size) {
    return Status::FailedPrecondition("could not form a group of size " +
                                      std::to_string(config.group_size));
  }

  // The experiment only ever consumes thresholded peers (Def. 1), so they
  // come from the engine-built sparse PeerIndex instead of an O(U)
  // similarity scan per member — the serving-path stack, with no dense
  // similarity structure anywhere in the eval.
  RatingSimilarityOptions sim_options;
  sim_options.shift_to_unit_interval = true;
  const PairwiseSimilarityEngine engine(&scenario.ratings, sim_options);
  PeerIndexOptions peer_options;
  peer_options.delta = config.delta;
  FAIRREC_ASSIGN_OR_RETURN(const PeerIndex peers,
                           engine.BuildPeerIndex(peer_options));

  RecommenderOptions rec_options;
  rec_options.peers.delta = config.delta;
  rec_options.top_k = config.top_k;
  const Recommender recommender(&scenario.ratings, &peers, rec_options);

  GroupContextOptions context_options;
  context_options.aggregation = AggregationKind::kAverage;
  context_options.top_k = config.top_k;
  FAIRREC_ASSIGN_OR_RETURN(const std::vector<MemberRelevance> members,
                           recommender.RelevanceForGroup(group));
  FAIRREC_ASSIGN_OR_RETURN(const GroupContext full_context,
                           GroupContext::Build(members, context_options));

  Table2Result result;
  result.candidate_pool_size = full_context.num_candidates();

  FAIRREC_ASSIGN_OR_RETURN(
      const std::unique_ptr<ItemSetSelector> heuristic,
      SelectorRegistry::Global().CreateFromSpec(config.heuristic_selector));
  const BruteForceSelector brute_force;

  for (const int32_t m : config.m_values) {
    if (m > full_context.num_candidates()) {
      return Status::FailedPrecondition(
          "candidate pool too small: need m=" + std::to_string(m) + ", have " +
          std::to_string(full_context.num_candidates()));
    }
    const GroupContext context = full_context.RestrictToTopM(m);
    for (const int32_t z : config.z_values) {
      if (z >= m) continue;  // the paper reports only z < m cells
      Table2Row row;
      row.m = m;
      row.z = z;
      row.combinations = BruteForceSelector::CountCombinations(m, z);

      Selection heuristic_selection;
      const TimingResult heuristic_time = MeasureMs(
          [&] {
            heuristic_selection =
                heuristic->Select(context, z).ValueOrDie();
          },
          config.heuristic_repetitions);
      row.heuristic_ms = heuristic_time.min_ms;
      row.heuristic_value = heuristic_selection.score.value;
      row.heuristic_fairness = heuristic_selection.score.fairness;

      const FairnessReport report =
          ComputeFairnessReport(context, heuristic_selection);
      row.heuristic_min_max_ratio = report.min_max_ratio;
      row.heuristic_satisfaction_spread = report.satisfaction_spread;
      row.heuristic_envy_mean = report.envy_mean;
      row.heuristic_package_feasibility = report.package_feasibility;

      const bool run_bf =
          config.run_brute_force &&
          (config.max_combinations == 0 ||
           row.combinations <= config.max_combinations);
      if (run_bf) {
        Selection brute_selection;
        const TimingResult brute_time = MeasureMs(
            [&] { brute_selection = brute_force.Select(context, z).ValueOrDie(); },
            1);
        row.brute_force_ms = brute_time.min_ms;
        row.brute_force_value = brute_selection.score.value;
        row.brute_force_fairness = brute_selection.score.fairness;
      }
      result.rows.push_back(row);
    }
  }
  return result;
}

std::string FormatTable2(const Table2Result& result) {
  AsciiTable table({"m", "z", "C(m,z)", "Brute-force (ms)", "Heuristic (ms)",
                    "BF fairness", "H fairness", "BF value", "H value",
                    "H min/max", "H envy", "Paper BF (ms)", "Paper H (ms)"});
  for (const Table2Row& row : result.rows) {
    const double paper_bf = PaperTable2BruteForceMs(row.m, row.z);
    const double paper_h = PaperTable2HeuristicMs(row.m, row.z);
    table.AddRow(
        {std::to_string(row.m), std::to_string(row.z),
         FormatWithThousands(static_cast<int64_t>(row.combinations)),
         row.brute_force_ms < 0 ? "skipped" : FormatDouble(row.brute_force_ms, 2),
         FormatDouble(row.heuristic_ms, 3),
         row.brute_force_fairness < 0 ? "-"
                                      : FormatDouble(row.brute_force_fairness, 2),
         FormatDouble(row.heuristic_fairness, 2),
         row.brute_force_ms < 0 ? "-" : FormatDouble(row.brute_force_value, 3),
         FormatDouble(row.heuristic_value, 3),
         FormatDouble(row.heuristic_min_max_ratio, 2),
         FormatDouble(row.heuristic_envy_mean, 3),
         paper_bf < 0 ? "-" : FormatWithThousands(static_cast<int64_t>(paper_bf)),
         paper_h < 0 ? "-" : FormatDouble(paper_h, 0)});
  }
  return table.ToString();
}

namespace {
struct PaperCell {
  int32_t m;
  int32_t z;
  double brute_force_ms;
  double heuristic_ms;
};
// Verbatim from Table II of the paper.
constexpr PaperCell kPaperTable2[] = {
    {10, 4, 37, 10},           {10, 8, 41, 13},
    {20, 4, 712, 19},          {20, 8, 72254, 23},
    {20, 12, 171414, 34},      {20, 16, 13340, 46},
    {30, 4, 3981, 23},         {30, 8, 3425266, 33},
    {30, 12, 116735821, 45},   {30, 16, 322371457, 65},
    {30, 20, 124219934, 83},
};
}  // namespace

double PaperTable2BruteForceMs(int32_t m, int32_t z) {
  for (const PaperCell& cell : kPaperTable2) {
    if (cell.m == m && cell.z == z) return cell.brute_force_ms;
  }
  return -1.0;
}

double PaperTable2HeuristicMs(int32_t m, int32_t z) {
  for (const PaperCell& cell : kPaperTable2) {
    if (cell.m == m && cell.z == z) return cell.heuristic_ms;
  }
  return -1.0;
}

}  // namespace fairrec
