// DistBuildCoordinator failure-matrix tests. Every scenario ends with the
// same assertion: the index the coordinator hands back is byte-identical to
// the single-process PairwiseSimilarityEngine::BuildPeerIndex — through
// crashes, corruption, stragglers, retries, and coordinator death.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/blob_io.h"
#include "common/random.h"
#include "common/retry.h"
#include "dist/coordinator.h"
#include "dist/partial_artifact.h"
#include "ratings/rating_matrix.h"
#include "sim/pairwise_engine.h"

namespace fairrec {
namespace {

RatingMatrix Corpus(int32_t num_users, int32_t num_items, uint64_t seed) {
  RatingMatrixBuilder builder;
  Rng rng(seed);
  for (UserId u = 0; u < num_users; ++u) {
    for (ItemId i = 0; i < num_items; ++i) {
      if (rng.NextBool(0.4)) {
        EXPECT_TRUE(
            builder.Add(u, i, static_cast<Rating>(rng.UniformInt(1, 5))).ok());
      }
    }
  }
  return std::move(builder.Build()).ValueOrDie();
}

DistWorkerOptions WorkerOptions() {
  DistWorkerOptions options;
  options.peers.delta = 0.2;
  options.peers.max_peers_per_user = 6;
  return options;
}

PeerIndex Reference(const RatingMatrix& matrix) {
  const DistWorkerOptions options = WorkerOptions();
  const PairwiseSimilarityEngine engine(&matrix, options.similarity, {});
  return std::move(engine.BuildPeerIndex(options.peers)).ValueOrDie();
}

/// Fresh scratch directory per test case.
std::string ScratchDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/fairrec_coord_" + name;
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  auto existing = ListPartialArtifactFiles(dir);
  if (existing.ok()) {
    for (const std::string& path : *existing) {
      EXPECT_TRUE(RemovePath(path).ok());
    }
  }
  return dir;
}

DistBuildOptions BaseOptions(const std::string& dir, int32_t partitions,
                             FakeClock* clock) {
  DistBuildOptions options;
  options.num_partitions = partitions;
  options.worker_slots = 2;
  options.artifact_dir = dir;
  options.worker = WorkerOptions();
  options.retry.max_attempts = 4;
  options.retry.initial_backoff_millis = 100;
  options.retry.backoff_multiplier = 2.0;
  options.retry.max_backoff_millis = 1000;
  options.clock = clock;
  return options;
}

TEST(DistBuildCoordinatorTest, HappyPathMatchesEngineAtEveryLayout) {
  const RatingMatrix matrix = Corpus(40, 18, 0xc0de);
  const PeerIndex reference = Reference(matrix);
  for (const int32_t partitions : {1, 2, 4, 8}) {
    FakeClock clock;
    const std::string dir =
        ScratchDir("happy_" + std::to_string(partitions));
    DistBuildCoordinator coordinator(
        &matrix, BaseOptions(dir, partitions, &clock));
    auto result = coordinator.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->index == reference) << partitions << " partitions";
    EXPECT_EQ(result->stats.attempts_launched, partitions);
    EXPECT_EQ(result->stats.attempts_failed, 0);
    EXPECT_EQ(result->stats.merge_passes, 1);
    EXPECT_EQ(result->artifact_paths.size(),
              static_cast<size_t>(partitions));
  }
}

TEST(DistBuildCoordinatorTest, EveryWorkerKilledOnceStillConverges) {
  // Each partition's first attempt dies after nothing, mid-write, or after
  // the durable commit (the ack-loss window) — rotating through the three
  // failure shapes — and the retried attempts still produce the reference
  // bytes. This is the acceptance criterion's "every worker task killed at
  // least once" clause, exercised without failpoints so it also runs under
  // NDEBUG/Release.
  const RatingMatrix matrix = Corpus(36, 16, 0xdead);
  const PeerIndex reference = Reference(matrix);
  const int32_t partitions = 4;
  FakeClock clock;
  const std::string dir = ScratchDir("killed_once");
  DistBuildCoordinator coordinator(&matrix,
                                   BaseOptions(dir, partitions, &clock));
  std::atomic<int32_t> kills{0};
  coordinator.set_worker_fn([&](const RatingMatrix& m,
                                const PartitionDescriptor& partition,
                                int32_t attempt,
                                const DistWorkerOptions& options,
                                const std::string& path) -> Status {
    if (attempt == 0) {
      kills.fetch_add(1);
      switch (partition.index % 3) {
        case 0:  // died before emitting anything
          return Status::IOError("injected: worker lost before emit");
        case 1: {  // died mid-write: a torn, unparseable file is left behind
          std::ofstream torn(path, std::ios::binary | std::ios::trunc);
          torn.write("torn artifact", 13);
          return Status::IOError("injected: worker lost mid-write");
        }
        default: {  // died after the durable commit, before the ack
          auto artifact =
              BuildPartialPeerArtifact(m, partition, attempt, options);
          if (!artifact.ok()) return artifact.status();
          FAIRREC_RETURN_NOT_OK(artifact->WriteFile(path));
          return Status::IOError("injected: ack lost after commit");
        }
      }
    }
    auto artifact = BuildPartialPeerArtifact(m, partition, attempt, options);
    if (!artifact.ok()) return artifact.status();
    return artifact->WriteFile(path);
  });
  auto result = coordinator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->index == reference);
  EXPECT_EQ(kills.load(), partitions);
  EXPECT_EQ(result->stats.attempts_failed, partitions);
  EXPECT_EQ(result->stats.attempts_launched, 2 * partitions);
  EXPECT_GT(result->stats.backoff_waited_millis, 0);
}

TEST(DistBuildCoordinatorTest, AckLossArtifactIsAdoptedNotRebuilt) {
  // The partition whose worker committed the artifact and then died: the
  // retry's attempt-1 file and the orphaned attempt-0 file both sit in the
  // directory; the merge dedup keeps the lowest attempt and parity holds.
  const RatingMatrix matrix = Corpus(24, 12, 0xacc);
  const PeerIndex reference = Reference(matrix);
  FakeClock clock;
  const std::string dir = ScratchDir("ack_loss");
  DistBuildCoordinator coordinator(&matrix, BaseOptions(dir, 2, &clock));
  coordinator.set_worker_fn([&](const RatingMatrix& m,
                                const PartitionDescriptor& partition,
                                int32_t attempt,
                                const DistWorkerOptions& options,
                                const std::string& path) -> Status {
    auto artifact = BuildPartialPeerArtifact(m, partition, attempt, options);
    if (!artifact.ok()) return artifact.status();
    FAIRREC_RETURN_NOT_OK(artifact->WriteFile(path));
    if (partition.index == 1 && attempt == 0) {
      return Status::IOError("injected: ack lost");
    }
    return Status::OK();
  });
  auto result = coordinator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->index == reference);
  // Both files exist; the coordinator chose attempt 1 for partition 1.
  EXPECT_TRUE(PathExists(dir + "/" + PartialArtifactFileName(1, 0)));
  EXPECT_EQ(result->artifact_paths[1],
            dir + "/" + PartialArtifactFileName(1, 1));
}

TEST(DistBuildCoordinatorTest, CorruptArtifactIsRejectedRequeuedAndRebuilt) {
  // The worker reports OK but the bytes on disk are garbage: read-back
  // validation must catch it (DataLoss), delete the file, and requeue.
  const RatingMatrix matrix = Corpus(28, 14, 0xc0117);
  const PeerIndex reference = Reference(matrix);
  FakeClock clock;
  const std::string dir = ScratchDir("corrupt");
  DistBuildCoordinator coordinator(&matrix, BaseOptions(dir, 2, &clock));
  coordinator.set_worker_fn([&](const RatingMatrix& m,
                                const PartitionDescriptor& partition,
                                int32_t attempt,
                                const DistWorkerOptions& options,
                                const std::string& path) -> Status {
    if (partition.index == 0 && attempt == 0) {
      std::ofstream garbage(path, std::ios::binary | std::ios::trunc);
      garbage.write("not a blob at all", 17);
      return Status::OK();  // the lie read-back validation exists for
    }
    auto artifact = BuildPartialPeerArtifact(m, partition, attempt, options);
    if (!artifact.ok()) return artifact.status();
    return artifact->WriteFile(path);
  });
  auto result = coordinator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->index == reference);
  EXPECT_EQ(result->stats.artifacts_rejected, 1);
  EXPECT_FALSE(PathExists(dir + "/" + PartialArtifactFileName(0, 0)));
}

TEST(DistBuildCoordinatorTest, FingerprintMismatchIsPermanentNotRetried) {
  // A worker that computes against the wrong corpus is a configuration bug:
  // InvalidArgument, no retry (attempt 1 would fail identically).
  const RatingMatrix matrix = Corpus(24, 12, 0xf00d);
  const RatingMatrix wrong = Corpus(24, 12, 0xf00d ^ 1);
  FakeClock clock;
  const std::string dir = ScratchDir("fingerprint");
  DistBuildCoordinator coordinator(&matrix, BaseOptions(dir, 2, &clock));
  std::atomic<int32_t> calls{0};
  coordinator.set_worker_fn([&](const RatingMatrix& m,
                                const PartitionDescriptor& partition,
                                int32_t attempt,
                                const DistWorkerOptions& options,
                                const std::string& path) -> Status {
    calls.fetch_add(1);
    const RatingMatrix& source = partition.index == 0 ? wrong : m;
    auto artifact =
        BuildPartialPeerArtifact(source, partition, attempt, options);
    if (!artifact.ok()) return artifact.status();
    return artifact->WriteFile(path);
  });
  const auto result = coordinator.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  // Partition 0 ran exactly once — a fingerprint mismatch must not burn the
  // retry budget.
  EXPECT_LE(calls.load(), 3);
}

TEST(DistBuildCoordinatorTest, RetryBudgetExhaustionIsResourceExhausted) {
  const RatingMatrix matrix = Corpus(20, 10, 0xe0f);
  FakeClock clock;
  auto options = BaseOptions(ScratchDir("exhausted"), 2, &clock);
  options.retry.max_attempts = 3;
  DistBuildCoordinator coordinator(&matrix, options);
  std::atomic<int32_t> partition0_attempts{0};
  coordinator.set_worker_fn([&](const RatingMatrix& m,
                                const PartitionDescriptor& partition,
                                int32_t attempt,
                                const DistWorkerOptions& worker_options,
                                const std::string& path) -> Status {
    if (partition.index == 0) {
      partition0_attempts.fetch_add(1);
      return Status::IOError("injected: disk on fire");
    }
    auto artifact =
        BuildPartialPeerArtifact(m, partition, attempt, worker_options);
    if (!artifact.ok()) return artifact.status();
    return artifact->WriteFile(path);
  });
  const auto result = coordinator.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("disk on fire"),
            std::string::npos);
  EXPECT_EQ(partition0_attempts.load(), 3);
}

TEST(DistBuildCoordinatorTest, BackoffFollowsThePolicyScheduleInVirtualTime) {
  // Two failures before success: the backoffs booked must be exactly
  // BackoffMillis(policy, 1) + BackoffMillis(policy, 2) with jitter off —
  // 100 + 200 virtual milliseconds under the Base policy.
  const RatingMatrix matrix = Corpus(18, 10, 0xbac0);
  const PeerIndex reference = Reference(matrix);
  FakeClock clock;
  auto options = BaseOptions(ScratchDir("backoff"), 1, &clock);
  options.retry.jitter_fraction = 0.0;
  DistBuildCoordinator coordinator(&matrix, options);
  std::atomic<int32_t> attempts{0};
  coordinator.set_worker_fn([&](const RatingMatrix& m,
                                const PartitionDescriptor& partition,
                                int32_t attempt,
                                const DistWorkerOptions& worker_options,
                                const std::string& path) -> Status {
    if (attempts.fetch_add(1) < 2) {
      return Status::IOError("injected: transient");
    }
    auto artifact =
        BuildPartialPeerArtifact(m, partition, attempt, worker_options);
    if (!artifact.ok()) return artifact.status();
    return artifact->WriteFile(path);
  });
  auto result = coordinator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->index == reference);
  EXPECT_EQ(result->stats.backoff_waited_millis,
            BackoffMillis(options.retry, 1) + BackoffMillis(options.retry, 2));
  EXPECT_EQ(result->stats.backoff_waited_millis, 300);
}

TEST(DistBuildCoordinatorTest, StragglerGetsSpeculativeAttemptThatWins) {
  // Partition 0's first attempt blocks until virtual time passes the straggler
  // threshold; the speculative attempt completes, wins, and the straggler's
  // late OK (with its duplicate artifact) is absorbed by the dedup.
  const RatingMatrix matrix = Corpus(30, 14, 0x51a9);
  const PeerIndex reference = Reference(matrix);
  FakeClock clock;
  auto options = BaseOptions(ScratchDir("straggler"), 2, &clock);
  options.worker_slots = 3;
  options.task_timeout_millis = 500;
  // Virtual time moves only when the straggler moves it: an idle control
  // loop must not age partition 1 past the threshold on its own.
  options.poll_interval_millis = 0;
  DistBuildCoordinator coordinator(&matrix, options);
  std::atomic<bool> partition1_finished{false};
  std::atomic<bool> speculative_finished{false};
  coordinator.set_worker_fn([&](const RatingMatrix& m,
                                const PartitionDescriptor& partition,
                                int32_t attempt,
                                const DistWorkerOptions& worker_options,
                                const std::string& path) -> Status {
    if (partition.index == 0 && attempt == 0) {
      // The straggler: hold virtual time until partition 1 has finished, so
      // only partition 0 can ever cross the threshold; then stall, advancing
      // virtual time in slices, until the speculative attempt has
      // demonstrably won.
      while (!partition1_finished.load()) std::this_thread::yield();
      while (!speculative_finished.load()) clock.SleepMillis(50);
    }
    auto artifact =
        BuildPartialPeerArtifact(m, partition, attempt, worker_options);
    if (!artifact.ok()) return artifact.status();
    FAIRREC_RETURN_NOT_OK(artifact->WriteFile(path));
    if (partition.index == 1) partition1_finished.store(true);
    if (partition.index == 0 && attempt > 0) {
      speculative_finished.store(true);
    }
    return Status::OK();
  });
  auto result = coordinator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->index == reference);
  EXPECT_EQ(result->stats.speculative_attempts, 1);
  EXPECT_EQ(result->stats.attempts_launched, 3);
}

TEST(DistBuildCoordinatorTest, RerunAfterCoordinatorDeathReusesArtifacts) {
  // Simulated coordinator death after the build phase: the artifacts are on
  // disk but no merge happened. A fresh coordinator over the same directory
  // must adopt them all without launching a single worker.
  const RatingMatrix matrix = Corpus(32, 15, 0x9e57a);
  const PeerIndex reference = Reference(matrix);
  const std::string dir = ScratchDir("rerun");
  for (int32_t p = 0; p < 3; ++p) {
    auto artifact = BuildPartialPeerArtifact(
        matrix, MakePartition(p, 3, matrix.num_users()), /*attempt=*/0,
        WorkerOptions());
    ASSERT_TRUE(artifact.ok());
    ASSERT_TRUE(
        artifact->WriteFile(dir + "/" + PartialArtifactFileName(p, 0)).ok());
  }
  FakeClock clock;
  DistBuildCoordinator coordinator(&matrix, BaseOptions(dir, 3, &clock));
  coordinator.set_worker_fn([](const RatingMatrix&,
                               const PartitionDescriptor&, int32_t,
                               const DistWorkerOptions&,
                               const std::string&) -> Status {
    ADD_FAILURE() << "no worker should launch when every artifact is reusable";
    return Status::Internal("unreachable");
  });
  auto result = coordinator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->index == reference);
  EXPECT_EQ(result->stats.artifacts_reused, 3);
  EXPECT_EQ(result->stats.attempts_launched, 0);
}

TEST(DistBuildCoordinatorTest, StaleArtifactsFromAnotherCorpusAreDiscarded) {
  // Leftovers from a previous build of a *different* corpus sit in the
  // directory: they must be ignored (deleted), not merged and not fatal.
  const RatingMatrix matrix = Corpus(26, 12, 0x57a1e);
  const RatingMatrix previous = Corpus(26, 12, 0x57a1e ^ 1);
  const PeerIndex reference = Reference(matrix);
  const std::string dir = ScratchDir("stale");
  auto leftover = BuildPartialPeerArtifact(
      previous, MakePartition(0, 2, previous.num_users()), /*attempt=*/0,
      WorkerOptions());
  ASSERT_TRUE(leftover.ok());
  ASSERT_TRUE(
      leftover->WriteFile(dir + "/" + PartialArtifactFileName(0, 0)).ok());

  FakeClock clock;
  DistBuildCoordinator coordinator(&matrix, BaseOptions(dir, 2, &clock));
  auto result = coordinator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->index == reference);
  EXPECT_EQ(result->stats.stale_artifacts_ignored, 1);
  EXPECT_EQ(result->stats.artifacts_reused, 0);
}

TEST(DistBuildCoordinatorTest, SingleWorkerSlotSerializesButStaysExact) {
  // worker_slots=1 degenerates to a sequential build — the scheduling order
  // must not leak into the bytes.
  const RatingMatrix matrix = Corpus(34, 16, 0x0107);
  const PeerIndex reference = Reference(matrix);
  FakeClock clock;
  auto options = BaseOptions(ScratchDir("serial"), 4, &clock);
  options.worker_slots = 1;
  DistBuildCoordinator coordinator(&matrix, options);
  auto result = coordinator.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->index == reference);
}

TEST(DistBuildCoordinatorTest, ValidatesItsOptions) {
  const RatingMatrix matrix = Corpus(10, 8, 0xbad0);
  FakeClock clock;
  {
    auto options = BaseOptions(ScratchDir("opts"), 1, &clock);
    options.num_partitions = 0;
    EXPECT_TRUE(DistBuildCoordinator(&matrix, options)
                    .Run()
                    .status()
                    .IsInvalidArgument());
  }
  {
    auto options = BaseOptions(ScratchDir("opts"), 1, &clock);
    options.artifact_dir.clear();
    EXPECT_TRUE(DistBuildCoordinator(&matrix, options)
                    .Run()
                    .status()
                    .IsInvalidArgument());
  }
  {
    auto options = BaseOptions(ScratchDir("opts"), 1, &clock);
    options.retry.max_attempts = 0;
    EXPECT_TRUE(DistBuildCoordinator(&matrix, options)
                    .Run()
                    .status()
                    .IsInvalidArgument());
  }
}

}  // namespace
}  // namespace fairrec
