// build: one corpus through the three peer-graph build paths — the
// in-memory engine (BuildPeerIndex), the budgeted out-of-core path
// (BuildMomentStoreOutOfCore + BuildPeerIndexFromStore, budget well below
// the store, spill in the state directory) and DistBuildCoordinator over 4
// partitions. The sweep, shuffle, tile residency and dist merge do the
// work; the query and update layers are idle.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dist/coordinator.h"
#include "dist/partial_artifact.h"
#include "harness.h"
#include "queries.h"
#include "sim/pairwise_engine.h"
#include "sim/tile_residency.h"

namespace perfbench {
namespace {

using fairrec::PeerIndex;
using fairrec::RatingMatrix;

struct BuildShape {
  CorpusShape corpus;
  /// Set-up (corpus generation and reference build) repeats; setup_s is
  /// their median.
  int32_t setup_repeats = 1;
  /// Rounds (each runs every path): a fixed count, or (primary phase) per
  /// requested second. The count never follows the clock.
  int32_t rounds = 0;
  double rounds_per_second = 0.0;
  int32_t min_rounds = 2;
  /// Builds per round of the two short paths; a round's sample is their
  /// mean, so no sample is shorter than ~0.3 s.
  int32_t engine_repeats = 1;
  int32_t dist_repeats = 1;
  size_t budget_bytes = 0;
  int32_t partitions = 4;
};

BuildShape ShapeFor(Scale scale, bool primary) {
  if (scale == Scale::kTiny) return {{300, 150, 0.05}, 1, 2, 0.0, 2, 1, 1, 64u << 10, 4};
  if (!primary) return {{1200, 1000, 0.02}, 1, 5, 0.0, 5, 10, 5, 4u << 20, 4};
  return {{3000, 2000, 0.01}, 5, 0, 0.5, 3, 15, 8, 16u << 20, 4};
}

std::string Bytes(const PeerIndex& index) {
  std::string out;
  index.SerializeTo(out);
  return out;
}

/// Per-build layer seconds and counts of one path run.
struct PathRun {
  double seconds = 0.0;
  std::string index_bytes;
  bool ok = false;
  // out-of-core
  double ooc_store = 0.0;
  double store_finish = 0.0;
  uint64_t spill_bytes = 0;
  int64_t tile_restores = 0;
  // dist
  double partial_sum = 0.0;
  double partial_max = 0.0;
  double merge = 0.0;
  double cpu = 0.0;  // process CPU seconds of Run()
  int64_t attempts_launched = 0;
  int64_t attempts_failed = 0;
  // Repeat: runs that failed.
  int64_t failed_runs = 0;
};

PathRun RunEngine(const RatingMatrix& matrix) {
  PathRun run;
  fairrec::PairwiseEngineOptions options;
  options.num_threads = static_cast<size_t>(BuildThreads());
  const double start = WallNow();
  const fairrec::PairwiseSimilarityEngine engine(&matrix, {}, options);
  auto index = engine.BuildPeerIndex(PeerOptions());
  run.seconds = WallNow() - start;
  run.ok = index.ok();
  if (run.ok) run.index_bytes = Bytes(*index);
  return run;
}

PathRun RunOutOfCore(const RatingMatrix& matrix, const BuildShape& shape,
                     const std::string& spill_dir) {
  PathRun run;
  std::filesystem::remove_all(spill_dir);
  fairrec::OutOfCoreBuildOptions options;
  options.budget_bytes = shape.budget_bytes;
  options.spill_dir = spill_dir;
  fairrec::OutOfCoreBuildStats stats;
  const double start = CpuNow();
  auto store = fairrec::BuildMomentStoreOutOfCore(matrix, options, &stats);
  const double built = CpuNow();
  if (!store.ok()) return run;
  auto index = fairrec::BuildPeerIndexFromStore(matrix, *store->store,
                                                store->residency.get(), {},
                                                PeerOptions());
  const double finished = CpuNow();
  run.seconds = finished - start;
  run.ooc_store = built - start;
  run.store_finish = finished - built;
  run.ok = index.ok() && store->residency != nullptr;
  if (!run.ok) return run;
  run.index_bytes = Bytes(*index);
  run.spill_bytes = stats.shuffle.spilled_bytes +
                    store->residency->stats().spill_bytes_written;
  run.tile_restores = store->residency->stats().restores;
  return run;
}

PathRun RunDist(const RatingMatrix& matrix, const BuildShape& shape,
                const std::string& artifact_dir, bool traced) {
  PathRun run;
  std::filesystem::remove_all(artifact_dir);
  fairrec::DistBuildOptions options;
  options.num_partitions = shape.partitions;
  options.worker_slots = static_cast<size_t>(std::min(BuildThreads(), shape.partitions));
  options.artifact_dir = artifact_dir;
  options.worker.peers = PeerOptions();
  options.reuse_existing_artifacts = false;
  fairrec::DistBuildCoordinator coordinator(&matrix, options);

  // Traced: the worker seam runs the default worker's two calls
  // (BuildPartialPeerArtifact, WriteFile) and records each partial build's
  // CPU seconds on its worker thread's clock.
  std::mutex mu;
  std::vector<double> partials;
  if (traced) {
    coordinator.set_worker_fn([&mu, &partials](const RatingMatrix& m,
                                               const fairrec::PartitionDescriptor& partition,
                                               int32_t attempt,
                                               const fairrec::DistWorkerOptions& worker,
                                               const std::string& path) {
      const double start = ThreadCpuNow();
      auto artifact = fairrec::BuildPartialPeerArtifact(m, partition, attempt, worker);
      const double seconds = ThreadCpuNow() - start;
      {
        std::lock_guard<std::mutex> lock(mu);
        partials.push_back(seconds);
      }
      if (!artifact.ok()) return artifact.status();
      return artifact->WriteFile(path);
    });
  }
  const double start = WallNow();
  const double cpu_start = CpuNow();
  auto result = coordinator.Run();
  run.cpu = CpuNow() - cpu_start;
  run.seconds = WallNow() - start;
  run.ok = result.ok();
  if (!run.ok) return run;
  run.index_bytes = Bytes(result->index);
  run.attempts_launched = result->stats.attempts_launched;
  run.attempts_failed = result->stats.attempts_failed;
  if (!traced) return run;

  for (const double seconds : partials) {
    run.partial_sum += seconds;
    run.partial_max = std::max(run.partial_max, seconds);
  }
  // The merge, re-run on the validated artifacts through its public call.
  std::vector<fairrec::PartialPeerArtifact> artifacts;
  for (const std::string& path : result->artifact_paths) {
    auto artifact = fairrec::PartialPeerArtifact::ReadFile(path);
    if (!artifact.ok()) {
      run.ok = false;
      return run;
    }
    artifacts.push_back(std::move(artifact).value());
  }
  const double merge_start = CpuNow();
  auto merged = fairrec::MergePartialArtifacts(artifacts);
  run.merge = CpuNow() - merge_start;
  run.ok = merged.ok() && Bytes(*merged) == run.index_bytes;
  return run;
}

/// Mean seconds of `repeats` runs of `path`; every run's bytes must equal
/// `reference` (set from the first engine build).
template <typename Fn>
PathRun Repeat(int32_t repeats, const std::string& reference, bool* all_match, Fn path) {
  PathRun total;
  total.ok = true;
  for (int32_t r = 0; r < repeats; ++r) {
    PathRun run = path();
    if (!run.ok || run.index_bytes != reference) *all_match = false;
    if (!run.ok) ++total.failed_runs;
    total.seconds += run.seconds / repeats;
    total.partial_sum += run.partial_sum / repeats;
    total.partial_max += run.partial_max / repeats;
    total.merge += run.merge / repeats;
    total.cpu += run.cpu / repeats;
    total.attempts_launched = run.attempts_launched;
    total.attempts_failed = run.attempts_failed;
  }
  return total;
}

class BuildPhase final : public Phase {
 public:
  BuildPhase(const Args& args, bool primary, Report& report)
      : args_(args),
        primary_(primary),
        report_(report),
        shape_(ShapeFor(args.scale, primary)),
        spill_dir_(args.state_dir + "/spill"),
        artifact_dir_(args.state_dir + "/dist") {}

  int SetUp() override;
  int32_t num_blocks() const override { return rounds_; }
  void RunBlock(int32_t round) override;
  void Finish() override;

 private:
  void ReportTrace();

  const Args& args_;
  const bool primary_;
  Report& report_;
  const BuildShape shape_;
  const std::string spill_dir_;
  const std::string artifact_dir_;

  std::vector<double> setup_seconds_;
  RatingMatrix matrix_;
  /// The engine's PeerIndex bytes, which every build path must reproduce.
  std::string reference_;
  int32_t rounds_ = 0;

  // Per round.
  std::vector<double> engine_s_, ooc_s_, dist_s_;
  std::vector<double> traced_total_, untraced_total_;
  std::vector<double> ooc_store_, store_finish_, partial_sum_, partial_max_, merge_,
      coordinator_;
  bool all_match_ = true;
  bool counts_repeat_ = true;
  PathRun first_ooc_;
  PathRun first_dist_;
};

int BuildPhase::SetUp() {
  // Set-up: the corpus and the reference index.
  for (int32_t r = 0; r < shape_.setup_repeats; ++r) {
    const double start = CpuNow();
    matrix_ = GenerateCorpus(shape_.corpus, args_.seed);
    reference_ = RunEngine(matrix_).index_bytes;
    setup_seconds_.push_back(CpuNow() - start);
    report_.Attempt("build.setup", reference_.empty()
                                       ? fairrec::Status::Internal("reference build failed")
                                       : fairrec::Status::OK());
  }
  all_match_ = !reference_.empty();
  report_.Env("build.corpus", std::to_string(matrix_.num_users()) + " users x " +
                                  std::to_string(matrix_.num_items()) + " items, " +
                                  std::to_string(matrix_.num_ratings()) + " ratings");
  report_.Env("build.ooc_budget_bytes", static_cast<double>(shape_.budget_bytes));
  report_.Env("build.dist_partitions", static_cast<double>(shape_.partitions));
  report_.Env("build.dist_worker_slots",
              static_cast<double>(std::min(BuildThreads(), shape_.partitions)));
  rounds_ = static_cast<int32_t>(std::max<double>(
      shape_.min_rounds, shape_.rounds > 0
                             ? shape_.rounds
                             : std::llround(args_.seconds * shape_.rounds_per_second)));
  report_.Env("build.rounds", static_cast<double>(rounds_));
  report_.Env("build.engine_builds_per_round", static_cast<double>(shape_.engine_repeats));
  report_.Env("build.dist_builds_per_round", static_cast<double>(shape_.dist_repeats));
  return 0;
}

void BuildPhase::RunBlock(int32_t round) {
  // In the traced run every other round is traced; the untraced rounds
  // measure the instrumentation's overhead.
  const bool traced = args_.trace && round % 2 == 1;
  const PathRun engine = Repeat(shape_.engine_repeats, reference_, &all_match_,
                                [&] { return RunEngine(matrix_); });
  const PathRun ooc = RunOutOfCore(matrix_, shape_, spill_dir_);
  if (!ooc.ok || ooc.index_bytes != reference_) all_match_ = false;
  const PathRun dist = Repeat(shape_.dist_repeats, reference_, &all_match_, [&] {
    return RunDist(matrix_, shape_, artifact_dir_, traced);
  });
  report_.Attempts("build.engine", shape_.engine_repeats, engine.failed_runs);
  report_.Attempt("build.out_of_core",
                  ooc.ok ? fairrec::Status::OK() : fairrec::Status::Internal("ooc build failed"));
  report_.Attempts("build.dist", shape_.dist_repeats, dist.failed_runs);
  if (round == 0) {
    first_ooc_ = ooc;
    first_dist_ = dist;
  } else if (ooc.spill_bytes != first_ooc_.spill_bytes ||
             ooc.tile_restores != first_ooc_.tile_restores ||
             dist.attempts_launched != first_dist_.attempts_launched) {
    counts_repeat_ = false;
  }
  engine_s_.push_back(engine.seconds);
  ooc_s_.push_back(ooc.seconds);
  dist_s_.push_back(dist.seconds);
  (traced ? traced_total_ : untraced_total_)
      .push_back(engine.seconds + ooc.seconds + dist.seconds);
  if (traced) {
    ooc_store_.push_back(ooc.ooc_store);
    store_finish_.push_back(ooc.store_finish);
    partial_sum_.push_back(dist.partial_sum);
    partial_max_.push_back(dist.partial_max);
    merge_.push_back(dist.merge);
    coordinator_.push_back(dist.cpu - dist.partial_sum);
  }
}

void BuildPhase::Finish() {
  std::filesystem::remove_all(spill_dir_);
  std::filesystem::remove_all(artifact_dir_);
  report_.Check("build.all_paths_serialize_identical_peer_index", all_match_,
                "a build path produced PeerIndex bytes different from the engine's");
  report_.Check("build.counts_repeat_across_rounds", counts_repeat_,
                "spill / restore / attempt counts changed between rounds");
  if (args_.trace) {
    ReportTrace();
    return;
  }
  if (primary_) {
    report_.Metric("setup_s", Median(setup_seconds_), "s",
                   static_cast<int64_t>(setup_seconds_.size()));
  }
  // The best round of each path (see BlockStat).
  report_.Metric("build_s", Best(engine_s_, /*lower=*/true), "s", rounds_);
  report_.Metric("budget_build_s", Best(ooc_s_, /*lower=*/true), "s", rounds_);
  report_.Metric("dist_build_s", Best(dist_s_, /*lower=*/true), "s", rounds_);
}

void BuildPhase::ReportTrace() {
  const auto traced_rounds = static_cast<int64_t>(traced_total_.size());
  report_.Metric("sim.engine_build_s", Median(engine_s_), "s", rounds_);
  report_.Metric("sim.ooc_store_s", Median(ooc_store_), "s", traced_rounds);
  report_.Metric("sim.store_finish_s", Median(store_finish_), "s", traced_rounds);
  report_.Metric("dist.partial_s", Median(partial_sum_), "s", traced_rounds);
  report_.Metric("dist.partial_max_s", Median(partial_max_), "s", traced_rounds);
  report_.Metric("dist.merge_s", Median(merge_), "s", traced_rounds);
  std::vector<double> coordinator_rest;
  for (size_t i = 0; i < coordinator_.size(); ++i) {
    coordinator_rest.push_back(coordinator_[i] - merge_[i]);
  }
  report_.Metric("dist.coordinator_s", Median(coordinator_rest), "s", traced_rounds);
  report_.Metric("sim.spill_bytes", static_cast<double>(first_ooc_.spill_bytes), "count");
  report_.Metric("sim.tile_restores", static_cast<double>(first_ooc_.tile_restores), "count");
  report_.Metric("dist.attempts_launched",
                 static_cast<double>(first_dist_.attempts_launched), "count");
  report_.Metric("dist.attempts_failed", static_cast<double>(first_dist_.attempts_failed),
                 "count");
  report_.Metric("trace.build_overhead_ratio",
                 Median(traced_total_) / Median(untraced_total_), "ratio");
}

}  // namespace

std::unique_ptr<Phase> MakeBuildPhase(const Args& args, bool primary, Report& report) {
  return std::make_unique<BuildPhase>(args, primary, report);
}

}  // namespace perfbench
