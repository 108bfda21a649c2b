#ifndef FAIRREC_DIST_PARTIAL_ARTIFACT_H_
#define FAIRREC_DIST_PARTIAL_ARTIFACT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ratings/rating_matrix.h"
#include "ratings/types.h"
#include "sim/peer_index.h"
#include "sim/rating_similarity.h"

namespace fairrec {

/// Distributed peer-graph build, stage 1: the durable unit of work.
///
/// A worker owns one contiguous user-id partition and computes, alone, every
/// Def. 1 pair the partition is responsible for: pair (a, b) with a < b
/// belongs to the partition containing `a`. Because a pair's co-ratings all
/// live in the rating matrix (which every worker has), the worker accumulates
/// the pair's *complete* Pearson sufficient statistics — no cross-worker
/// moment exchange. The worker is the in-memory engine's own sweep
/// restricted to the rows it owns (PairwiseSimilarityEngine::BuildPeerIndex
/// over a row range), finished through the same batched kernel:
/// qualifying pairs (sim >= delta) are offered, both directions, into a
/// worker-local bounded PeerIndex::Builder.
///
/// Exactness of the merge (no overflow frontier needed): each unordered pair
/// is owned by exactly one partition, so the union of the workers' offer
/// multisets equals the single-process engine's offer multiset, pair for
/// pair, bit for bit. A worker's per-user top-k cap can only drop an entry
/// that at least max_peers_per_user better entries (under the strict total
/// BetterPeer order) in the *same* row already beat — entries that are also
/// all in the global row — so nothing in the global top-k is ever dropped
/// from a partial. Re-offering every retained partial entry into a fresh
/// Builder therefore reproduces the single-process index byte-identically at
/// every partition layout.
///
/// The artifact rides the checksummed blob container (common/blob_io.h):
/// manifest and rows are separately CRC-framed inside the payload, the
/// container adds the whole-payload CRC, and Deserialize re-validates every
/// structural invariant — so a truncated, bit-flipped, or garbage artifact
/// is DataLoss, never UB and never a silently wrong graph.

/// Failpoint sites of the worker emit / merge consume path (debug builds).
/// `dist.worker.emit` dies before any byte is written; `dist.worker.finalize`
/// dies after the artifact is durably committed but before the worker reports
/// success (the classic ack-loss double-emission window); `dist.merge.consume`
/// dies between consuming two partials.
inline constexpr std::string_view kFailpointDistWorkerEmit = "dist.worker.emit";
inline constexpr std::string_view kFailpointDistWorkerFinalize =
    "dist.worker.finalize";
inline constexpr std::string_view kFailpointDistMergeConsume =
    "dist.merge.consume";

/// Blob container type tag of PartialPeerArtifact files ("PPA1").
inline constexpr uint32_t kPartialPeerArtifactBlobType = 0x31415050;

/// Identity of the corpus an artifact was computed from. Workers and the
/// merge must agree on all four fields; a mismatch means the artifact
/// belongs to a different (or stale) corpus and can never be merged —
/// InvalidArgument, not a retryable fault.
struct CorpusFingerprint {
  int32_t num_users = 0;
  int32_t num_items = 0;
  int64_t num_ratings = 0;
  /// CRC32C of the matrix's canonical serialized bytes.
  uint32_t content_crc = 0;

  friend bool operator==(const CorpusFingerprint&,
                         const CorpusFingerprint&) = default;
};

/// Fingerprints `matrix` (serializes it once; O(num_ratings)).
CorpusFingerprint FingerprintCorpus(const RatingMatrix& matrix);

/// One contiguous user-id slice of a `count`-way partitioning: this worker
/// owns every pair (a, b), a < b, with a in [user_first, user_last).
struct PartitionDescriptor {
  int32_t index = 0;
  int32_t count = 1;
  UserId user_first = 0;
  UserId user_last = 0;  // exclusive

  friend bool operator==(const PartitionDescriptor&,
                         const PartitionDescriptor&) = default;
};

/// The canonical even split of [0, num_users) into `count` contiguous
/// ranges (the first num_users % count ranges get one extra user).
/// Precondition: 0 <= index < count, num_users >= 0.
PartitionDescriptor MakePartition(int32_t index, int32_t count,
                                  int32_t num_users);

/// Everything the merge needs to decide whether an artifact is admissible:
/// which corpus, which slice, which attempt, and under which options the
/// rows were built. Serialized ahead of the rows inside the artifact.
struct PartialArtifactManifest {
  CorpusFingerprint fingerprint;
  PartitionDescriptor partition;
  /// Worker attempt id: retries and speculative launches of the same
  /// partition emit distinct attempts; the merge dedupes by (partition,
  /// attempt), keeping the lowest attempt, so duplicates are idempotent.
  int32_t attempt = 0;
  RatingSimilarityOptions similarity;
  PeerIndexOptions peers;
};

/// The blob a worker emits: manifest + its partition's partial peer rows.
struct PartialPeerArtifact {
  PartialArtifactManifest manifest;
  /// Worker-local bounded top-k rows over the full user population (a pair
  /// owned here enters both endpoints' rows; rows of users whose every peer
  /// pair is owned elsewhere are empty).
  PeerIndex rows;

  /// Appends the wire form: a CRC-framed manifest section, then a CRC-framed
  /// PeerIndex snapshot section.
  void SerializeTo(std::string& out) const;

  /// Parses and fully re-validates SerializeTo bytes: framing and CRCs,
  /// manifest field ranges, every PeerIndex invariant, manifest/rows option
  /// agreement, and pair ownership (each entry's lower endpoint inside the
  /// partition slice). DataLoss on any violation.
  static Result<PartialPeerArtifact> Deserialize(std::string_view bytes);

  /// Writes the artifact atomically under the blob container. Hits the
  /// dist.worker.emit / dist.worker.finalize failpoints.
  Status WriteFile(const std::string& path) const;

  /// Reads a WriteFile artifact: NotFound when absent, DataLoss on any
  /// corruption (message carries the path).
  static Result<PartialPeerArtifact> ReadFile(const std::string& path);
};

/// Worker-side build knobs. similarity/peers must match across every worker
/// of one build (the merge enforces it).
struct DistWorkerOptions {
  RatingSimilarityOptions similarity;
  PeerIndexOptions peers;
  /// Edge length of the accumulation tiles (same meaning as
  /// PairwiseEngineOptions::block_users).
  int32_t block_users = 512;
};

/// Computes partition `partition`'s partial artifact from `matrix`: the
/// engine sweep over rows [user_first, user_last) x cols [user_first, U) on
/// the calling thread with options.block_users tiles. Does not touch the
/// filesystem.
Result<PartialPeerArtifact> BuildPartialPeerArtifact(
    const RatingMatrix& matrix, const PartitionDescriptor& partition,
    int32_t attempt, const DistWorkerOptions& options);

/// Stage 2: the bounded per-user-row union across N partials.
///
/// Validates the set before consuming a single row: non-empty; identical
/// fingerprints, options, and partition count everywhere (InvalidArgument on
/// mismatch — wrong inputs, not data corruption, so never retried); after
/// deduping by partition (lowest attempt wins), exactly one artifact per
/// partition index with slices that tile [0, num_users) contiguously. Then
/// re-offers every retained entry into a fresh Builder — byte-identical to
/// the single-process BuildPeerIndex by the ownership argument above. Hits
/// dist.merge.consume once per artifact consumed.
Result<PeerIndex> MergePartialArtifacts(
    std::span<const PartialPeerArtifact> partials);

/// File-level merge: reads and validates every path (DataLoss with the path
/// on corruption), then merges. The subprocess path (`fairrec_cli
/// merge-partials`) and the coordinator's final pass both go through this,
/// so post-write corruption is caught at merge time too.
Result<PeerIndex> MergePartialArtifactFiles(
    const std::vector<std::string>& paths);

/// Canonical artifact file name: "partial_p<index>_a<attempt>.blob",
/// zero-padded so lexicographic order is (partition, attempt) order.
std::string PartialArtifactFileName(int32_t partition_index, int32_t attempt);

/// Every partial-artifact file in `dir` (by name pattern), sorted; IOError
/// when the directory cannot be read.
Result<std::vector<std::string>> ListPartialArtifactFiles(
    const std::string& dir);

}  // namespace fairrec

#endif  // FAIRREC_DIST_PARTIAL_ARTIFACT_H_
