// Selector-path benchmark: every selector the SelectorRegistry knows,
// head-to-head on one synthetic health scenario, with a JSON record for the
// perf trajectory (the BENCH_selector.json companion of the similarity /
// peer-index / mapreduce benches).
//
// For each (group shape, |G|, m, z) configuration the run builds the group's
// candidate context once (sparse peer graph -> Recommender::RelevanceForGroup
// -> GroupContext::Build -> RestrictToTopM), then times each registered
// selector over --reps repetitions. Group shapes come from data/scenario.h:
// cohesive and random (the original sweep) plus the fairness stress shapes —
// skewed (one minority member), coldstart (half the group are the corpus's
// thinnest raters), and adversarial (an even two-cluster taste split).
//
// Quality is value(G, D) relative to the brute-force optimum, plus the
// per-member fairness metrics of eval/fairness_metrics.h (min/max
// satisfaction ratio, satisfaction spread, mean pairwise envy, package
// feasibility). Value ratios, selections, and fairness metrics are
// corpus-deterministic, so all gates except --check-speedup-min are immune
// to runner noise (and that one has orders-of-magnitude headroom):
//
//   --check-value-ratio-min F    exit 3 when Algorithm 1's worst value ratio
//                                across configurations drops below F
//   --check-speedup-min F        exit 3 when brute/algorithm1 speedup at the
//                                largest configuration drops below F
//   --check-min-max-ratio-min F  exit 3 when Algorithm 1's worst min/max
//                                satisfaction ratio drops below F
//
// Exit status: 0 ok, 1 argument/IO errors, 2 if any heuristic beats the
// exhaustive optimum (impossible unless a selector is broken), 3 if a
// --check-* regression gate fails.
//
//   bench_selector [--patients N] [--documents N] [--density F] [--seed N]
//                  [--reps N] [--check-value-ratio-min F]
//                  [--check-speedup-min F] [--check-min-max-ratio-min F]
//                  [--out BENCH_selector.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cf/recommender.h"
#include "common/stopwatch.h"
#include "core/brute_force.h"
#include "core/group_context.h"
#include "core/selector_registry.h"
#include "data/scenario.h"
#include "eval/fairness_metrics.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_index.h"
#include "sim/rating_similarity.h"

namespace fairrec {
namespace {

struct BenchConfig {
  int32_t num_patients = 300;
  int32_t num_documents = 200;
  double rating_density = 0.08;
  uint64_t seed = 777;
  int32_t reps = 10;
  double check_value_ratio_min = 0.0;
  double check_speedup_min = 0.0;
  double check_min_max_ratio_min = 0.0;
  std::string out_path = "BENCH_selector.json";
};

struct SelectorRun {
  std::string name;
  double seconds_per_select = 0.0;
  double value = 0.0;
  double fairness = 0.0;
  double relevance_sum = 0.0;
  double value_ratio = 1.0;  // vs the brute-force optimum
  // Per-member fairness of the selection (eval/fairness_metrics.h).
  double min_max_ratio = 1.0;
  double satisfaction_spread = 0.0;
  double envy_mean = 0.0;
  double package_feasibility = 0.0;
};

struct ConfigResult {
  std::string group_shape;
  int32_t group_size = 0;
  int32_t m = 0;
  int32_t z = 0;
  std::vector<SelectorRun> selectors;
};

double TimeSelect(const ItemSetSelector& selector, const GroupContext& pool,
                  int32_t z, int32_t reps, Selection* out) {
  // One warm-up select (also the returned Selection — selectors are
  // deterministic), then the timed repetitions.
  auto first = selector.Select(pool, z);
  if (!first.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", selector.name().c_str(),
                 first.status().ToString().c_str());
    std::exit(1);
  }
  *out = *first;
  Stopwatch clock;
  for (int32_t r = 0; r < reps; ++r) {
    auto result = selector.Select(pool, z);
    if (!result.ok()) std::exit(1);
  }
  return clock.ElapsedSeconds() / std::max<int32_t>(reps, 1);
}

SelectorRun MakeRun(const ItemSetSelector& selector, const GroupContext& pool,
                    const Selection& selection, double seconds,
                    const Selection& opt) {
  SelectorRun run;
  run.name = selector.name();
  run.seconds_per_select = seconds;
  run.value = selection.score.value;
  run.fairness = selection.score.fairness;
  run.relevance_sum = selection.score.relevance_sum;
  run.value_ratio = opt.score.value > 0.0
                        ? selection.score.value / opt.score.value
                        : 1.0;
  const FairnessReport report = ComputeFairnessReport(pool, selection);
  run.min_max_ratio = report.min_max_ratio;
  run.satisfaction_spread = report.satisfaction_spread;
  run.envy_mean = report.envy_mean;
  run.package_feasibility = report.package_feasibility;
  return run;
}

int Run(const BenchConfig& config) {
  ScenarioConfig scenario_config;
  scenario_config.num_patients = config.num_patients;
  scenario_config.num_documents = config.num_documents;
  scenario_config.num_clusters = 6;
  scenario_config.rating_density = config.rating_density;
  scenario_config.seed = config.seed;
  const Scenario scenario =
      std::move(BuildScenario(scenario_config)).ValueOrDie();
  std::printf("scenario: %d patients x %d documents, %lld ratings\n",
              config.num_patients, config.num_documents,
              static_cast<long long>(scenario.ratings.num_ratings()));

  // Serving-path context build: engine-built sparse peer graph.
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
  // Cold-start members rarely have peer evidence on every candidate; keeping
  // items any member can score is what makes the coldstart shape a fairness
  // stress instead of an empty candidate pool.
  GroupContextOptions context_options;
  context_options.top_k = rec_options.top_k;
  context_options.require_all_members = false;
  const Recommender recommender(&scenario.ratings, &peers, rec_options);

  // The zoo under test: every registered selector except the exhaustive
  // enumerator, which runs separately as ground truth.
  const SelectorRegistry& registry = SelectorRegistry::Global();
  std::vector<std::unique_ptr<ItemSetSelector>> zoo;
  for (const std::string& name : registry.Names()) {
    if (name == "brute-force") continue;
    zoo.push_back(std::move(registry.Create(name)).ValueOrDie());
  }
  const BruteForceSelector brute_force;

  const GroupShape shapes[] = {GroupShape::kCohesive, GroupShape::kRandom,
                               GroupShape::kSkewed, GroupShape::kColdStart,
                               GroupShape::kAdversarial};

  std::vector<ConfigResult> results;
  double worst_alg1_ratio = 1.0;
  double worst_alg1_min_max_ratio = 1.0;
  double largest_config_speedup = 0.0;
  uint64_t largest_config_combinations = 0;
  bool heuristic_beat_optimum = false;
  for (size_t shape_index = 0; shape_index < std::size(shapes); ++shape_index) {
    const GroupShape shape = shapes[shape_index];
    for (const int32_t g : {3, 5}) {
      for (const auto& [m, z] : {std::pair<int32_t, int32_t>{14, 4},
                                 std::pair<int32_t, int32_t>{20, 6}}) {
        const Group group = scenario.MakeGroup(
            shape, g, 100 * (shape_index + 1) + static_cast<uint64_t>(g + m));
        const auto members =
            std::move(recommender.RelevanceForGroup(group)).ValueOrDie();
        const GroupContext full =
            std::move(GroupContext::Build(members, context_options))
                .ValueOrDie();
        const GroupContext pool = full.RestrictToTopM(m);

        ConfigResult r;
        r.group_shape = GroupShapeName(shape);
        r.group_size = g;
        r.m = std::min(m, pool.num_candidates());
        r.z = z;

        Selection opt;
        const double brute_seconds =
            TimeSelect(brute_force, pool, z, std::max(1, config.reps / 5),
                       &opt);
        double alg1_seconds = 0.0;
        for (const std::unique_ptr<ItemSetSelector>& selector : zoo) {
          Selection selection;
          const double seconds =
              TimeSelect(*selector, pool, z, config.reps, &selection);
          if (selection.score.value > opt.score.value + 1e-9) {
            heuristic_beat_optimum = true;
          }
          const SelectorRun run =
              MakeRun(*selector, pool, selection, seconds, opt);
          if (run.name == "algorithm1") {
            alg1_seconds = seconds;
            worst_alg1_ratio = std::min(worst_alg1_ratio, run.value_ratio);
            worst_alg1_min_max_ratio =
                std::min(worst_alg1_min_max_ratio, run.min_max_ratio);
          }
          r.selectors.push_back(run);
        }
        r.selectors.push_back(
            MakeRun(brute_force, pool, opt, brute_seconds, opt));

        // "Largest configuration" = the one with the most brute-force
        // enumerations, independent of loop order.
        const uint64_t combinations =
            BruteForceSelector::CountCombinations(r.m, z);
        if (combinations >= largest_config_combinations) {
          largest_config_combinations = combinations;
          largest_config_speedup =
              brute_seconds / std::max(alg1_seconds, 1e-12);
        }
        const SelectorRun& alg1 = r.selectors.front();
        std::printf(
            "%-11s |G|=%d m=%2d z=%d: alg1 %8.1f us (ratio %.4f, min/max "
            "%.3f)  brute %10.1f us  [%zu selectors]\n",
            r.group_shape.c_str(), g, r.m, z, 1e6 * alg1.seconds_per_select,
            alg1.value_ratio, alg1.min_max_ratio, 1e6 * brute_seconds,
            r.selectors.size());
        results.push_back(std::move(r));
      }
    }
  }

  std::FILE* out = std::fopen(config.out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"selector\",\n"
               "  \"schema_version\": 2,\n"
               "  \"scenario\": {\n"
               "    \"num_patients\": %d,\n"
               "    \"num_documents\": %d,\n"
               "    \"num_ratings\": %lld,\n"
               "    \"rating_density\": %.6f,\n"
               "    \"seed\": %llu\n"
               "  },\n"
               "  \"options\": {\n"
               "    \"delta\": %.6f,\n"
               "    \"top_k\": %d,\n"
               "    \"reps\": %d\n"
               "  },\n",
               config.num_patients, config.num_documents,
               static_cast<long long>(scenario.ratings.num_ratings()),
               config.rating_density,
               static_cast<unsigned long long>(config.seed),
               rec_options.peers.delta, rec_options.top_k, config.reps);
  std::fprintf(out, "  \"configs\": [\n");
  for (size_t k = 0; k < results.size(); ++k) {
    const ConfigResult& r = results[k];
    std::fprintf(out,
                 "    {\n"
                 "      \"group_shape\": \"%s\",\n"
                 "      \"group_size\": %d,\n"
                 "      \"m\": %d,\n"
                 "      \"z\": %d,\n"
                 "      \"selectors\": [\n",
                 r.group_shape.c_str(), r.group_size, r.m, r.z);
    for (size_t s = 0; s < r.selectors.size(); ++s) {
      const SelectorRun& run = r.selectors[s];
      std::fprintf(out,
                   "        {\"name\": \"%s\", \"seconds_per_select\": %.9f, "
                   "\"value\": %.6f, \"fairness\": %.6f, "
                   "\"relevance_sum\": %.6f, \"value_ratio\": %.6f, "
                   "\"min_max_ratio\": %.6f, \"satisfaction_spread\": %.6f, "
                   "\"envy_mean\": %.6f, \"package_feasibility\": %.6f}%s\n",
                   run.name.c_str(), run.seconds_per_select, run.value,
                   run.fairness, run.relevance_sum, run.value_ratio,
                   run.min_max_ratio, run.satisfaction_spread, run.envy_mean,
                   run.package_feasibility,
                   s + 1 < r.selectors.size() ? "," : "");
    }
    std::fprintf(out, "      ]\n    }%s\n",
                 k + 1 < results.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"worst_algorithm1_value_ratio\": %.6f,\n"
               "  \"worst_algorithm1_min_max_ratio\": %.6f,\n"
               "  \"brute_over_algorithm1_speedup\": %.3f\n"
               "}\n",
               worst_alg1_ratio, worst_alg1_min_max_ratio,
               largest_config_speedup);
  std::fclose(out);
  std::printf("wrote %s\n", config.out_path.c_str());
  std::printf("worst Algorithm 1 value ratio: %.4f   min/max satisfaction "
              "ratio: %.4f   brute/alg1 speedup at the largest config: "
              "%.0fx\n",
              worst_alg1_ratio, worst_alg1_min_max_ratio,
              largest_config_speedup);

  if (heuristic_beat_optimum) {
    std::fprintf(stderr,
                 "FAIL: a heuristic exceeded the exhaustive optimum\n");
    return 2;
  }
  if (config.check_value_ratio_min > 0.0 &&
      worst_alg1_ratio < config.check_value_ratio_min) {
    std::fprintf(stderr,
                 "FAIL: Algorithm 1 value ratio %.4f below the gate %.4f\n",
                 worst_alg1_ratio, config.check_value_ratio_min);
    return 3;
  }
  if (config.check_speedup_min > 0.0 &&
      largest_config_speedup < config.check_speedup_min) {
    std::fprintf(stderr, "FAIL: brute/alg1 speedup %.1fx below the gate "
                         "%.1fx\n",
                 largest_config_speedup, config.check_speedup_min);
    return 3;
  }
  if (config.check_min_max_ratio_min > 0.0 &&
      worst_alg1_min_max_ratio < config.check_min_max_ratio_min) {
    std::fprintf(stderr,
                 "FAIL: Algorithm 1 min/max satisfaction ratio %.4f below "
                 "the gate %.4f\n",
                 worst_alg1_min_max_ratio, config.check_min_max_ratio_min);
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace fairrec

int main(int argc, char** argv) {
  fairrec::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--patients") {
      config.num_patients = std::atoi(next());
    } else if (arg == "--documents") {
      config.num_documents = std::atoi(next());
    } else if (arg == "--density") {
      config.rating_density = std::atof(next());
    } else if (arg == "--seed") {
      config.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--reps") {
      config.reps = std::atoi(next());
    } else if (arg == "--check-value-ratio-min") {
      config.check_value_ratio_min = std::atof(next());
    } else if (arg == "--check-speedup-min") {
      config.check_speedup_min = std::atof(next());
    } else if (arg == "--check-min-max-ratio-min") {
      config.check_min_max_ratio_min = std::atof(next());
    } else if (arg == "--out") {
      config.out_path = next();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }
  if (config.num_patients < 10 || config.num_documents < 10 ||
      config.rating_density <= 0.0 || config.rating_density > 1.0 ||
      config.reps < 1) {
    std::fprintf(stderr, "invalid configuration\n");
    return 1;
  }
  return fairrec::Run(config);
}
