// fairrec_cli — command-line front end for the FairRec library.
//
// Lets a downstream user run the paper's pipeline on their own
// `user,item,rating` CSV (or a generated synthetic one) without writing C++:
//
//   fairrec_cli generate  --out ratings.csv [--users 400] [--docs 200] [--seed 7]
//   fairrec_cli stats     --ratings ratings.csv
//   fairrec_cli recommend --ratings ratings.csv --user 3 [--k 10] [--delta 0.55]
//   fairrec_cli group     --ratings ratings.csv --members 1,2,3 --z 6
//                         [--selector NAME[:k=v,...]]
//                         [--aggregation min|avg|max|median] [--k 10]
//                         [--delta 0.55] [--max-memory-mb 256 --spill-dir /tmp/x]
//   fairrec_cli list-selectors
//
// `recommend` and `group` serve from the same artifact: the sparse Def. 1
// peer graph the sufficient-statistics engine builds from the ratings.
// `--selector` accepts any SelectorRegistry name or alias, optionally with a
// `:key=value,...` option tail (e.g. `local-search:max_swaps=50`); the
// list-selectors command prints the whole zoo with its options.
//
// Distributed peer-graph build (src/dist): `build-worker` computes one user
// partition's PartialPeerArtifact (the subprocess form of the in-process
// worker — one invocation per partition, any order, any machine sharing the
// artifact directory), `merge-partials` unions a directory of partials into
// the peer graph that is byte-identical to the single-process build, and
// `dist-build` runs the whole failure-aware coordinator in one process:
//
//   fairrec_cli build-worker   --ratings FILE --partition I --num-partitions N
//                              --dir DIR [--attempt N] [--delta X]
//                              [--max-peers N] [--min-overlap N]
//   fairrec_cli merge-partials --dir DIR [--out FILE]
//   fairrec_cli dist-build     --ratings FILE --partitions N --dir DIR
//                              [--workers N] [--timeout-ms N] [--max-attempts N]
//                              [--out FILE]
//
// Numeric flags are parsed strictly: a malformed or out-of-range value (an
// id outside int32, `--user abc`, `--members 3,x,5`) is a usage error.
//
// Exit status: 0 on success, 1 on usage/runtime errors.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cf/recommender.h"
#include "common/blob_io.h"
#include "common/string_util.h"
#include "core/group_context.h"
#include "core/selector_registry.h"
#include "data/scenario.h"
#include "dist/coordinator.h"
#include "dist/partial_artifact.h"
#include "eval/table.h"
#include "ratings/dataset.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_index.h"
#include "sim/rating_similarity.h"
#include "sim/tile_residency.h"

namespace fairrec {
namespace {

/// Minimal --flag=value / --flag value parser. The numeric getters are
/// strict: a malformed or out-of-range value yields the fallback and records
/// a usage error, which each command checks through status() after reading
/// its flags and before acting on any of them.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string token = argv[i];
      if (!StartsWith(token, "--")) continue;
      token = token.substr(2);
      const size_t eq = token.find('=');
      if (eq != std::string::npos) {
        values_[token.substr(0, eq)] = token.substr(eq + 1);
      } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        values_[token] = argv[++i];
      } else {
        values_[token] = "true";
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  template <typename T>
  T GetInt(const std::string& key, T fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : Check(key, ParseInt<T>(it->second), fallback);
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : Check(key, ParseDouble(it->second), fallback);
  }
  /// A comma-separated id list; blank entries are skipped.
  std::vector<UserId> GetUserIds(const std::string& key) const {
    std::vector<UserId> ids;
    for (const std::string& token : Split(Get(key, ""), ',')) {
      const std::string_view trimmed = Trim(token);
      if (!trimmed.empty()) {
        ids.push_back(Check(key, ParseInt<UserId>(trimmed), kInvalidUserId));
      }
    }
    return ids;
  }
  bool Has(const std::string& key) const { return values_.contains(key); }

  /// The first malformed numeric flag read so far, or OK.
  const Status& status() const { return status_; }

 private:
  template <typename T>
  T Check(const std::string& key, Result<T> parsed, T fallback) const {
    if (parsed.ok()) return *parsed;
    if (status_.ok()) {
      status_ = Status::InvalidArgument("--" + key + ": " +
                                        std::string(parsed.status().message()));
    }
    return fallback;
  }

  std::map<std::string, std::string> values_;
  mutable Status status_;
};

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  fairrec_cli generate  --out FILE [--users N] [--docs N] [--seed N]\n"
               "  fairrec_cli stats     --ratings FILE\n"
               "  fairrec_cli recommend --ratings FILE --user ID [--k N] [--delta X]\n"
               "  fairrec_cli group     --ratings FILE --members a,b,c --z N\n"
               "                        [--selector NAME[:k=v,...]]\n"
               "                        [--aggregation min|avg|max|median] [--k N] [--delta X]\n"
               "                        [--any-member] [--max-memory-mb N --spill-dir DIR]\n"
               "  fairrec_cli list-selectors\n"
               "  fairrec_cli build-worker   --ratings FILE --partition I "
               "--num-partitions N --dir DIR\n"
               "                             [--attempt N] [--delta X] "
               "[--max-peers N] [--min-overlap N]\n"
               "  fairrec_cli merge-partials --dir DIR [--out FILE]\n"
               "  fairrec_cli dist-build     --ratings FILE --partitions N "
               "--dir DIR [--workers N]\n"
               "                             [--timeout-ms N] "
               "[--max-attempts N] [--out FILE]\n");
  return 1;
}

/// Reports a malformed flag, then the usage text.
int UsageError(const Status& status) {
  std::fprintf(stderr, "error: %s\n", std::string(status.message()).c_str());
  return Usage();
}

int RunListSelectors() {
  AsciiTable table({"name", "aliases", "objective", "options"});
  for (const SelectorInfo& info : SelectorRegistry::Global().List()) {
    table.AddRow({info.name, Join(info.aliases, ","),
                  info.objective, Join(info.option_keys, "; ")});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

Result<Dataset> LoadRatings(const Args& args) {
  const std::string path = args.Get("ratings", "");
  if (path.empty()) return Status::InvalidArgument("--ratings is required");
  return LoadDatasetCsv(path);
}

/// The CLI's serving artifact: the sparse Def. 1 peer graph, emitted by the
/// sufficient-statistics engine without ever materializing the dense U^2
/// similarity triangle. A non-zero `budget_bytes` routes the build through
/// the out-of-core path instead (sim/tile_residency.h): the moment store is
/// filled one tile at a time by the engine's row sweep and swept under the
/// byte budget, with overflow tiles paged to `spill_dir` — same artifact,
/// bounded memory.
Result<PeerIndex> BuildPeerGraph(const RatingMatrix& matrix, double delta,
                                 size_t budget_bytes,
                                 const std::string& spill_dir) {
  RatingSimilarityOptions sim_options;
  sim_options.shift_to_unit_interval = true;
  PeerIndexOptions peer_options;
  peer_options.delta = delta;
  if (budget_bytes == 0) {
    const PairwiseSimilarityEngine engine(&matrix, sim_options);
    return engine.BuildPeerIndex(peer_options);
  }
  OutOfCoreBuildOptions build_options;
  build_options.budget_bytes = budget_bytes;
  build_options.spill_dir = spill_dir;
  FAIRREC_ASSIGN_OR_RETURN(OutOfCoreStore store,
                           BuildMomentStoreOutOfCore(matrix, build_options));
  return BuildPeerIndexFromStore(matrix, *store.store, store.residency.get(),
                                 sim_options, peer_options);
}

int RunGenerate(const Args& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 1;
  }
  ScenarioConfig config;
  config.num_patients = args.GetInt<int32_t>("users", 400);
  config.num_documents = args.GetInt<int32_t>("docs", 200);
  config.seed = args.GetInt<uint64_t>("seed", 7);
  config.rating_density = args.GetDouble("density", 0.08);
  if (!args.status().ok()) return UsageError(args.status());
  const auto scenario = BuildScenario(config);
  if (!scenario.ok()) {
    std::fprintf(stderr, "error: %s\n", scenario.status().ToString().c_str());
    return 1;
  }
  Dataset dataset;
  dataset.matrix = scenario->ratings;
  const Status st = SaveDatasetCsv(dataset, out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %lld ratings (%d users x %d items) to %s\n",
              static_cast<long long>(dataset.matrix.num_ratings()),
              dataset.matrix.num_users(), dataset.matrix.num_items(),
              out.c_str());
  return 0;
}

int RunStats(const Args& args) {
  const auto dataset = LoadRatings(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const DatasetStats stats = dataset->ComputeStats();
  AsciiTable table({"metric", "value"});
  table.AddRow({"users", std::to_string(stats.num_users)});
  table.AddRow({"items", std::to_string(stats.num_items)});
  table.AddRow({"ratings", std::to_string(stats.num_ratings)});
  table.AddRow({"density", FormatDouble(stats.density * 100.0, 2) + "%"});
  table.AddRow({"mean rating", FormatDouble(stats.mean_rating, 3)});
  for (int s = 1; s <= 5; ++s) {
    table.AddRow({"ratings = " + std::to_string(s),
                  std::to_string(stats.histogram[static_cast<size_t>(s - 1)])});
  }
  table.AddRow({"user degree (min/mean/max)",
                std::to_string(stats.min_user_degree) + " / " +
                    FormatDouble(stats.mean_user_degree, 1) + " / " +
                    std::to_string(stats.max_user_degree)});
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int RunRecommend(const Args& args) {
  const auto dataset = LoadRatings(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  if (!args.Has("user")) {
    std::fprintf(stderr, "error: --user is required\n");
    return 1;
  }
  RecommenderOptions options;
  options.peers.delta = args.GetDouble("delta", 0.55);
  options.top_k = args.GetInt<int32_t>("k", 10);
  const auto user = args.GetInt<UserId>("user", kInvalidUserId);
  if (!args.status().ok()) return UsageError(args.status());
  const auto peers =
      BuildPeerGraph(dataset->matrix, options.peers.delta, 0, "");
  if (!peers.ok()) {
    std::fprintf(stderr, "error: %s\n", peers.status().ToString().c_str());
    return 1;
  }
  const Recommender recommender(&dataset->matrix, &*peers, options);
  const auto recs = recommender.RecommendForUser(user);
  if (!recs.ok()) {
    std::fprintf(stderr, "error: %s\n", recs.status().ToString().c_str());
    return 1;
  }
  AsciiTable table({"rank", "item", "relevance (Eq. 1)"});
  for (size_t i = 0; i < recs->size(); ++i) {
    table.AddRow({std::to_string(i + 1), std::to_string((*recs)[i].item),
                  FormatDouble((*recs)[i].score, 3)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int RunGroup(const Args& args) {
  const auto dataset = LoadRatings(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const Group group = args.GetUserIds("members");
  const auto z = args.GetInt<int32_t>("z", 6);
  RecommenderOptions rec_options;
  rec_options.peers.delta = args.GetDouble("delta", 0.55);
  rec_options.top_k = args.GetInt<int32_t>("k", 10);
  // --max-memory-mb caps the peer-graph build's resident moment bytes (the
  // laptop-budget knob); overflow tiles page to --spill-dir.
  const auto max_memory_mb = args.GetInt<int64_t>("max-memory-mb", 0);
  if (!args.status().ok()) return UsageError(args.status());
  if (group.empty()) {
    std::fprintf(stderr,
                 "error: --members is required (comma-separated ids)\n");
    return 1;
  }
  const std::string spill_dir = args.Get("spill-dir", "");
  if (max_memory_mb < 0) {
    std::fprintf(stderr, "error: --max-memory-mb must be >= 0\n");
    return 1;
  }
  if (max_memory_mb > 0 && spill_dir.empty()) {
    std::fprintf(stderr, "error: --max-memory-mb requires --spill-dir\n");
    return 1;
  }
  const auto peers =
      BuildPeerGraph(dataset->matrix, rec_options.peers.delta,
                     static_cast<size_t>(max_memory_mb) << 20, spill_dir);
  if (!peers.ok()) {
    std::fprintf(stderr, "error: %s\n", peers.status().ToString().c_str());
    return 1;
  }
  const Recommender recommender(&dataset->matrix, &*peers, rec_options);

  GroupContextOptions ctx_options;
  ctx_options.top_k = rec_options.top_k;
  // On sparse data, requiring every member to have peer evidence for an item
  // can empty the candidate pool; --any-member keeps items any member can
  // score (aggregation then runs over the defined subset).
  ctx_options.require_all_members = !args.Has("any-member");
  const std::string aggregation = args.Get("aggregation", "avg");
  if (aggregation == "min") {
    ctx_options.aggregation = AggregationKind::kMinimum;
  } else if (aggregation == "avg") {
    ctx_options.aggregation = AggregationKind::kAverage;
  } else if (aggregation == "max") {
    ctx_options.aggregation = AggregationKind::kMaximum;
  } else if (aggregation == "median") {
    ctx_options.aggregation = AggregationKind::kMedian;
  } else {
    std::fprintf(stderr, "error: unknown --aggregation '%s'\n",
                 aggregation.c_str());
    return 1;
  }

  std::string selector_spec = args.Get("selector", "algorithm1");
  if (selector_spec.find(':') == std::string::npos) {
    const auto info = SelectorRegistry::Global().Describe(selector_spec);
    if (info.ok() && info->name == "brute-force") {
      // Refuse multi-hour requests unless the user set their own cap.
      selector_spec += ":max_combinations=200000000";
    }
  }
  auto selector_or = SelectorRegistry::Global().CreateFromSpec(selector_spec);
  if (!selector_or.ok()) {
    std::fprintf(stderr,
                 "error: %s\n(run `fairrec_cli list-selectors` for the "
                 "available selectors and options)\n",
                 selector_or.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<ItemSetSelector> selector =
      std::move(selector_or).value();

  // Def. 1 peers + Eq. 1 per member -> the Def. 2 context -> the selector.
  const auto selection = [&]() -> Result<Selection> {
    FAIRREC_ASSIGN_OR_RETURN(const std::vector<MemberRelevance> members,
                             recommender.RelevanceForGroup(group));
    FAIRREC_ASSIGN_OR_RETURN(const GroupContext context,
                             GroupContext::Build(members, ctx_options));
    return selector->Select(context, z);
  }();
  if (!selection.ok()) {
    std::fprintf(stderr, "error: %s\n", selection.status().ToString().c_str());
    return 1;
  }
  if (selection->items.empty()) {
    std::fprintf(stderr,
                 "no recommendable items: no candidate had peer evidence for "
                 "%s. Try a lower --delta or --any-member.\n",
                 ctx_options.require_all_members ? "every member"
                                                 : "any member");
    return 1;
  }
  AsciiTable table({"rank", "item"});
  for (size_t i = 0; i < selection->items.size(); ++i) {
    table.AddRow({std::to_string(i + 1), std::to_string(selection->items[i])});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("selector=%s aggregation=%s fairness=%.3f relevance_sum=%.3f "
              "value=%.3f\n",
              selector->name().c_str(), aggregation.c_str(),
              selection->score.fairness, selection->score.relevance_sum,
              selection->score.value);

  AsciiTable member_table({"member", "satisfied", "relevance", "satisfaction"});
  double sat_min = 1.0, sat_max = 0.0;
  for (size_t m = 0; m < selection->members.size(); ++m) {
    const MemberBreakdown& row = selection->members[m];
    member_table.AddRow(
        {std::to_string(group[m]), row.satisfied ? "yes" : "no",
         FormatDouble(row.relevance_sum, 3),
         row.satisfaction < 0.0 ? "n/a" : FormatDouble(row.satisfaction, 3)});
    if (row.satisfaction >= 0.0) {
      sat_min = std::min(sat_min, row.satisfaction);
      sat_max = std::max(sat_max, row.satisfaction);
    }
  }
  std::printf("%s", member_table.ToString().c_str());
  std::printf("satisfaction min/max ratio = %.3f\n",
              sat_max > 0.0 ? sat_min / sat_max : 1.0);
  return 0;
}

/// Shared build knobs of the dist commands. Defaults mirror the `group`
/// command's peer-graph build (shifted similarities, delta 0.55) so a
/// distributed build serves the same graph the serial CLI path would.
DistWorkerOptions DistOptionsFromArgs(const Args& args) {
  DistWorkerOptions options;
  options.similarity.shift_to_unit_interval = true;
  options.similarity.min_overlap = args.GetInt<int32_t>("min-overlap", 1);
  options.peers.delta = args.GetDouble("delta", 0.55);
  options.peers.max_peers_per_user = args.GetInt<int32_t>("max-peers", 0);
  return options;
}

/// Commits a merged peer graph as a single-slice artifact (partition 0 of 1),
/// so `--out` files are themselves admissible inputs to merge-partials.
int WriteMergedArtifact(const PeerIndex& index,
                        const PartialArtifactManifest& base,
                        const std::string& out) {
  PartialPeerArtifact merged;
  merged.manifest = base;
  merged.manifest.partition = MakePartition(0, 1, index.num_users());
  merged.manifest.attempt = 0;
  merged.manifest.peers = index.options();
  merged.rows = index;
  const Status st = merged.WriteFile(out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote merged peer graph to %s\n", out.c_str());
  return 0;
}

int RunBuildWorker(const Args& args) {
  const auto dataset = LoadRatings(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const std::string dir = args.Get("dir", "");
  if (dir.empty() || !args.Has("partition") || !args.Has("num-partitions")) {
    std::fprintf(stderr,
                 "error: --dir, --partition, and --num-partitions are "
                 "required\n");
    return 1;
  }
  const auto index = args.GetInt<int32_t>("partition", -1);
  const auto count = args.GetInt<int32_t>("num-partitions", 0);
  const auto attempt = args.GetInt<int32_t>("attempt", 0);
  const DistWorkerOptions worker_options = DistOptionsFromArgs(args);
  if (!args.status().ok()) return UsageError(args.status());
  if (index < 0 || count < 1 || index >= count) {
    std::fprintf(stderr, "error: need 0 <= --partition < --num-partitions\n");
    return 1;
  }
  const Status dir_st = EnsureDirectory(dir);
  if (!dir_st.ok()) {
    std::fprintf(stderr, "error: %s\n", dir_st.ToString().c_str());
    return 1;
  }
  const auto artifact = BuildPartialPeerArtifact(
      dataset->matrix, MakePartition(index, count, dataset->matrix.num_users()),
      attempt, worker_options);
  if (!artifact.ok()) {
    std::fprintf(stderr, "error: %s\n", artifact.status().ToString().c_str());
    return 1;
  }
  const std::string path = dir + "/" + PartialArtifactFileName(index, attempt);
  const Status st = artifact->WriteFile(path);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("partition %d/%d attempt %d: users [%d, %d), %lld peer entries "
              "-> %s\n",
              index, count, attempt, artifact->manifest.partition.user_first,
              artifact->manifest.partition.user_last,
              static_cast<long long>(artifact->rows.num_entries()),
              path.c_str());
  return 0;
}

int RunMergePartials(const Args& args) {
  const std::string dir = args.Get("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "error: --dir is required\n");
    return 1;
  }
  const auto paths = ListPartialArtifactFiles(dir);
  if (!paths.ok()) {
    std::fprintf(stderr, "error: %s\n", paths.status().ToString().c_str());
    return 1;
  }
  if (paths->empty()) {
    std::fprintf(stderr, "error: no partial artifacts under %s\n", dir.c_str());
    return 1;
  }
  std::vector<PartialPeerArtifact> partials;
  partials.reserve(paths->size());
  for (const std::string& path : *paths) {
    auto artifact = PartialPeerArtifact::ReadFile(path);
    if (!artifact.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   artifact.status().ToString().c_str());
      return 1;
    }
    partials.push_back(std::move(*artifact));
  }
  const auto merged = MergePartialArtifacts(partials);
  if (!merged.ok()) {
    std::fprintf(stderr, "error: %s\n", merged.status().ToString().c_str());
    return 1;
  }
  AsciiTable table({"metric", "value"});
  table.AddRow({"partials merged", std::to_string(partials.size())});
  table.AddRow(
      {"partitions", std::to_string(partials.front().manifest.partition.count)});
  table.AddRow({"users", std::to_string(merged->num_users())});
  table.AddRow({"peer entries", std::to_string(merged->num_entries())});
  std::printf("%s", table.ToString().c_str());
  const std::string out = args.Get("out", "");
  if (!out.empty()) {
    return WriteMergedArtifact(*merged, partials.front().manifest, out);
  }
  return 0;
}

int RunDistBuild(const Args& args) {
  const auto dataset = LoadRatings(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  DistBuildOptions options;
  options.num_partitions = args.GetInt<int32_t>("partitions", 0);
  options.worker_slots = args.GetInt<size_t>("workers", 0);
  options.artifact_dir = args.Get("dir", "");
  options.worker = DistOptionsFromArgs(args);
  options.task_timeout_millis = args.GetInt<int64_t>("timeout-ms", 0);
  options.retry.max_attempts = args.GetInt<int32_t>("max-attempts", 4);
  if (!args.status().ok()) return UsageError(args.status());
  if (options.num_partitions < 1 || options.artifact_dir.empty()) {
    std::fprintf(stderr, "error: --partitions and --dir are required\n");
    return 1;
  }
  DistBuildCoordinator coordinator(&dataset->matrix, options);
  const auto result = coordinator.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  AsciiTable table({"metric", "value"});
  table.AddRow({"partitions", std::to_string(options.num_partitions)});
  table.AddRow({"attempts launched",
                std::to_string(result->stats.attempts_launched)});
  table.AddRow(
      {"attempts failed", std::to_string(result->stats.attempts_failed)});
  table.AddRow({"speculative attempts",
                std::to_string(result->stats.speculative_attempts)});
  table.AddRow(
      {"artifacts reused", std::to_string(result->stats.artifacts_reused)});
  table.AddRow(
      {"artifacts rejected", std::to_string(result->stats.artifacts_rejected)});
  table.AddRow({"peer entries", std::to_string(result->index.num_entries())});
  std::printf("%s", table.ToString().c_str());
  const std::string out = args.Get("out", "");
  if (!out.empty()) {
    PartialArtifactManifest base;
    base.fingerprint = FingerprintCorpus(dataset->matrix);
    base.similarity = options.worker.similarity;
    return WriteMergedArtifact(result->index, base, out);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (command == "generate") return RunGenerate(args);
  if (command == "stats") return RunStats(args);
  if (command == "recommend") return RunRecommend(args);
  if (command == "group") return RunGroup(args);
  if (command == "list-selectors" || command == "--list-selectors") {
    return RunListSelectors();
  }
  if (command == "build-worker") return RunBuildWorker(args);
  if (command == "merge-partials") return RunMergePartials(args);
  if (command == "dist-build") return RunDistBuild(args);
  return Usage();
}

}  // namespace
}  // namespace fairrec

int main(int argc, char** argv) { return fairrec::Main(argc, argv); }
