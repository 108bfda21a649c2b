#include "dist/partial_artifact.h"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/blob_io.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "sim/pairwise_engine.h"

namespace fairrec {

namespace {

/// Manifest wire version, bumped on layout changes.
constexpr uint32_t kManifestVersion = 1;

Status ManifestLoss(const std::string& what) {
  return Status::DataLoss("partial-artifact manifest: " + what);
}

void SerializeManifest(const PartialArtifactManifest& m, std::string& out) {
  BlobWriter writer(&out);
  writer.U32(kManifestVersion);
  writer.I32(m.fingerprint.num_users);
  writer.I32(m.fingerprint.num_items);
  writer.I64(m.fingerprint.num_ratings);
  writer.U32(m.fingerprint.content_crc);
  writer.I32(m.partition.index);
  writer.I32(m.partition.count);
  writer.I32(m.partition.user_first);
  writer.I32(m.partition.user_last);
  writer.I32(m.attempt);
  writer.I32(m.similarity.min_overlap);
  writer.U32(m.similarity.intersection_means ? 1 : 0);
  writer.U32(m.similarity.shift_to_unit_interval ? 1 : 0);
  writer.F64(m.peers.delta);
  writer.I32(m.peers.max_peers_per_user);
}

Result<PartialArtifactManifest> DeserializeManifest(std::string_view bytes) {
  BlobReader reader(bytes);
  PartialArtifactManifest m;
  uint32_t version = 0;
  uint32_t intersection_means = 0;
  uint32_t shift_to_unit_interval = 0;
  if (!reader.U32(&version) || !reader.I32(&m.fingerprint.num_users) ||
      !reader.I32(&m.fingerprint.num_items) ||
      !reader.I64(&m.fingerprint.num_ratings) ||
      !reader.U32(&m.fingerprint.content_crc) ||
      !reader.I32(&m.partition.index) || !reader.I32(&m.partition.count) ||
      !reader.I32(&m.partition.user_first) ||
      !reader.I32(&m.partition.user_last) || !reader.I32(&m.attempt) ||
      !reader.I32(&m.similarity.min_overlap) ||
      !reader.U32(&intersection_means) ||
      !reader.U32(&shift_to_unit_interval) || !reader.F64(&m.peers.delta) ||
      !reader.I32(&m.peers.max_peers_per_user)) {
    return ManifestLoss("truncated");
  }
  if (!reader.exhausted()) return ManifestLoss("trailing bytes");
  if (version != kManifestVersion) {
    return ManifestLoss("unknown version " + std::to_string(version));
  }
  if (m.fingerprint.num_users < 0 || m.fingerprint.num_items < 0 ||
      m.fingerprint.num_ratings < 0) {
    return ManifestLoss("negative corpus shape");
  }
  if (m.partition.count < 1 || m.partition.index < 0 ||
      m.partition.index >= m.partition.count) {
    return ManifestLoss("partition index out of range");
  }
  if (m.partition.user_first < 0 ||
      m.partition.user_first > m.partition.user_last ||
      m.partition.user_last > m.fingerprint.num_users) {
    return ManifestLoss("partition slice outside the user range");
  }
  if (m.attempt < 0) return ManifestLoss("negative attempt id");
  if (m.similarity.min_overlap < 1) return ManifestLoss("min_overlap < 1");
  if (intersection_means > 1 || shift_to_unit_interval > 1) {
    return ManifestLoss("corrupt bool flag");
  }
  m.similarity.intersection_means = intersection_means == 1;
  m.similarity.shift_to_unit_interval = shift_to_unit_interval == 1;
  if (!std::isfinite(m.peers.delta) || m.peers.max_peers_per_user < 0) {
    return ManifestLoss("corrupt peer options");
  }
  return m;
}

bool SameSimilarityOptions(const RatingSimilarityOptions& a,
                           const RatingSimilarityOptions& b) {
  return a.min_overlap == b.min_overlap &&
         a.intersection_means == b.intersection_means &&
         a.shift_to_unit_interval == b.shift_to_unit_interval;
}

bool SamePeerOptions(const PeerIndexOptions& a, const PeerIndexOptions& b) {
  return a.delta == b.delta && a.max_peers_per_user == b.max_peers_per_user;
}

}  // namespace

CorpusFingerprint FingerprintCorpus(const RatingMatrix& matrix) {
  std::string bytes;
  matrix.SerializeTo(bytes);
  CorpusFingerprint fingerprint;
  fingerprint.num_users = matrix.num_users();
  fingerprint.num_items = matrix.num_items();
  fingerprint.num_ratings = matrix.num_ratings();
  fingerprint.content_crc = Crc32c(bytes.data(), bytes.size());
  return fingerprint;
}

PartitionDescriptor MakePartition(int32_t index, int32_t count,
                                  int32_t num_users) {
  PartitionDescriptor partition;
  partition.index = index;
  partition.count = count;
  const int32_t base = num_users / count;
  const int32_t extra = num_users % count;
  partition.user_first = index * base + std::min(index, extra);
  partition.user_last =
      partition.user_first + base + (index < extra ? 1 : 0);
  return partition;
}

void PartialPeerArtifact::SerializeTo(std::string& out) const {
  std::string manifest_bytes;
  SerializeManifest(manifest, manifest_bytes);
  std::string row_bytes;
  rows.SerializeTo(row_bytes);
  BlobWriter writer(&out);
  writer.Framed(manifest_bytes);
  writer.Framed(row_bytes);
}

Result<PartialPeerArtifact> PartialPeerArtifact::Deserialize(
    std::string_view bytes) {
  BlobReader reader(bytes);
  std::string_view manifest_bytes;
  FAIRREC_RETURN_NOT_OK(reader.FramedSection(&manifest_bytes));
  std::string_view row_bytes;
  FAIRREC_RETURN_NOT_OK(reader.FramedSection(&row_bytes));
  if (!reader.exhausted()) {
    return Status::DataLoss("partial artifact: trailing bytes");
  }
  PartialPeerArtifact artifact;
  FAIRREC_ASSIGN_OR_RETURN(artifact.manifest,
                           DeserializeManifest(manifest_bytes));
  FAIRREC_ASSIGN_OR_RETURN(artifact.rows, PeerIndex::Deserialize(row_bytes));

  // Cross-checks between the two sections: the rows must be the population
  // and options the manifest claims, and every entry must be a pair this
  // partition owns (lower endpoint inside the slice). Violations mean the
  // sections were recombined or tampered with — DataLoss, like any other
  // integrity failure.
  if (artifact.rows.num_users() != artifact.manifest.fingerprint.num_users) {
    return Status::DataLoss(
        "partial artifact: row population disagrees with the manifest");
  }
  if (!SamePeerOptions(artifact.rows.options(), artifact.manifest.peers)) {
    return Status::DataLoss(
        "partial artifact: row options disagree with the manifest");
  }
  const PartitionDescriptor& partition = artifact.manifest.partition;
  for (UserId u = 0; u < artifact.rows.num_users(); ++u) {
    for (const Peer& peer : artifact.rows.PeersOf(u)) {
      const UserId owner = std::min(u, peer.user);
      if (owner < partition.user_first || owner >= partition.user_last) {
        return Status::DataLoss(
            "partial artifact: entry outside the partition slice");
      }
    }
  }
  return artifact;
}

Status PartialPeerArtifact::WriteFile(const std::string& path) const {
  if (failpoint::Triggered(kFailpointDistWorkerEmit)) {
    return failpoint::InjectedCrash(kFailpointDistWorkerEmit);
  }
  std::string payload;
  SerializeTo(payload);
  FAIRREC_RETURN_NOT_OK(
      WriteBlobFileAtomic(path, kPartialPeerArtifactBlobType, payload));
  // The artifact is durable but the worker has not reported success yet: a
  // crash here makes the coordinator retry an attempt whose output already
  // exists — the duplicate the merge's (partition, attempt) dedup absorbs.
  if (failpoint::Triggered(kFailpointDistWorkerFinalize)) {
    return failpoint::InjectedCrash(kFailpointDistWorkerFinalize);
  }
  return Status::OK();
}

Result<PartialPeerArtifact> PartialPeerArtifact::ReadFile(
    const std::string& path) {
  FAIRREC_ASSIGN_OR_RETURN(std::string payload,
                           ReadBlobFile(path, kPartialPeerArtifactBlobType));
  auto artifact = Deserialize(payload);
  if (!artifact.ok()) {
    return Status::DataLoss(path + ": " +
                            std::string(artifact.status().message()));
  }
  return artifact;
}

Result<PartialPeerArtifact> BuildPartialPeerArtifact(
    const RatingMatrix& matrix, const PartitionDescriptor& partition,
    int32_t attempt, const DistWorkerOptions& options) {
  if (partition.count < 1 || partition.index < 0 ||
      partition.index >= partition.count) {
    return Status::InvalidArgument("partition index out of range");
  }
  if (attempt < 0) return Status::InvalidArgument("attempt must be >= 0");
  if (options.similarity.min_overlap < 1) {
    return Status::InvalidArgument("min_overlap must be >= 1");
  }

  // The engine's sweep restricted to the pairs this partition owns: rows
  // [user_first, user_last) x cols [user_first, U), on this worker's thread,
  // finished through the same batched kernel as the single-process build —
  // so the offers are the engine's offers for these pairs, bit for bit.
  PairwiseEngineOptions engine_options;
  engine_options.block_users = options.block_users;
  const PairwiseSimilarityEngine engine(&matrix, options.similarity,
                                        engine_options);
  FAIRREC_ASSIGN_OR_RETURN(
      PeerIndex rows,
      engine.BuildPeerIndex(options.peers, partition.user_first,
                            partition.user_last));

  PartialPeerArtifact artifact;
  artifact.manifest.fingerprint = FingerprintCorpus(matrix);
  artifact.manifest.partition = partition;
  artifact.manifest.attempt = attempt;
  artifact.manifest.similarity = options.similarity;
  artifact.manifest.peers = options.peers;
  artifact.rows = std::move(rows);
  return artifact;
}

Result<PeerIndex> MergePartialArtifacts(
    std::span<const PartialPeerArtifact> partials) {
  if (partials.empty()) {
    return Status::InvalidArgument("no partial artifacts to merge");
  }
  const PartialArtifactManifest& reference = partials[0].manifest;
  for (const PartialPeerArtifact& partial : partials) {
    const PartialArtifactManifest& m = partial.manifest;
    if (!(m.fingerprint == reference.fingerprint)) {
      return Status::InvalidArgument(
          "corpus fingerprint mismatch across partial artifacts");
    }
    if (m.partition.count != reference.partition.count) {
      return Status::InvalidArgument(
          "partition count mismatch across partial artifacts");
    }
    if (!SameSimilarityOptions(m.similarity, reference.similarity)) {
      return Status::InvalidArgument(
          "similarity options mismatch across partial artifacts");
    }
    if (!SamePeerOptions(m.peers, reference.peers)) {
      return Status::InvalidArgument(
          "peer options mismatch across partial artifacts");
    }
    if (m.partition.index < 0 || m.partition.index >= m.partition.count) {
      return Status::InvalidArgument("partition index out of range");
    }
  }

  // Dedup speculative / retried duplicates: one artifact per partition, the
  // lowest attempt id winning (any attempt's rows are identical by
  // determinism; the rule just makes the choice order-independent).
  const auto count = static_cast<size_t>(reference.partition.count);
  std::vector<const PartialPeerArtifact*> chosen(count, nullptr);
  for (const PartialPeerArtifact& partial : partials) {
    const auto index = static_cast<size_t>(partial.manifest.partition.index);
    if (chosen[index] == nullptr ||
        partial.manifest.attempt < chosen[index]->manifest.attempt) {
      if (chosen[index] != nullptr &&
          !(chosen[index]->manifest.partition == partial.manifest.partition)) {
        return Status::InvalidArgument(
            "conflicting slices for partition " +
            std::to_string(partial.manifest.partition.index));
      }
      chosen[index] = &partial;
    }
  }
  UserId expected_first = 0;
  for (size_t index = 0; index < count; ++index) {
    if (chosen[index] == nullptr) {
      return Status::InvalidArgument(
          "missing partition " + std::to_string(index) + " of " +
          std::to_string(count));
    }
    const PartitionDescriptor& slice = chosen[index]->manifest.partition;
    if (slice.user_first != expected_first) {
      return Status::InvalidArgument(
          "partition slices do not tile the user range");
    }
    expected_first = slice.user_last;
  }
  if (expected_first != reference.fingerprint.num_users) {
    return Status::InvalidArgument(
        "partition slices do not cover every user");
  }

  // The bounded per-user-row union: re-offer every retained entry. Each
  // partial's rows are already thresholded and capped under the same strict
  // total order, so the union's top-k per row is the global top-k (see the
  // header's exactness argument).
  PeerIndex::Builder builder(reference.fingerprint.num_users, reference.peers);
  for (size_t index = 0; index < count; ++index) {
    if (failpoint::Triggered(kFailpointDistMergeConsume)) {
      return failpoint::InjectedCrash(kFailpointDistMergeConsume);
    }
    const PeerIndex& rows = chosen[index]->rows;
    for (UserId u = 0; u < rows.num_users(); ++u) {
      for (const Peer& peer : rows.PeersOf(u)) {
        builder.Offer(u, peer.user, peer.similarity);
      }
    }
  }
  return std::move(builder).Build();
}

Result<PeerIndex> MergePartialArtifactFiles(
    const std::vector<std::string>& paths) {
  std::vector<PartialPeerArtifact> partials;
  partials.reserve(paths.size());
  for (const std::string& path : paths) {
    FAIRREC_ASSIGN_OR_RETURN(PartialPeerArtifact artifact,
                             PartialPeerArtifact::ReadFile(path));
    partials.push_back(std::move(artifact));
  }
  return MergePartialArtifacts(partials);
}

std::string PartialArtifactFileName(int32_t partition_index, int32_t attempt) {
  char name[64];
  std::snprintf(name, sizeof(name), "partial_p%05d_a%04d.blob",
                partition_index, attempt);
  return name;
}

Result<std::vector<std::string>> ListPartialArtifactFiles(
    const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return Status::IOError("cannot list artifact directory: " + dir);
  }
  std::vector<std::string> paths;
  while (const struct dirent* entry = ::readdir(handle)) {
    const std::string_view name = entry->d_name;
    if (name.starts_with("partial_p") && name.ends_with(".blob")) {
      paths.push_back(dir + "/" + std::string(name));
    }
  }
  ::closedir(handle);
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace fairrec
