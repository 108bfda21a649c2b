#include "mapreduce/pipeline.h"

#include <algorithm>
#include <cmath>

#include "dist/partial_artifact.h"

namespace fairrec {

GroupRecommendationPipeline::GroupRecommendationPipeline(PipelineOptions options)
    : options_(options) {}

Result<PipelineResult> GroupRecommendationPipeline::Run(
    const RatingMatrix& matrix, const Group& group, int32_t z) const {
  PipelineResult result;
  const std::vector<RatingTriple> triples = matrix.ToTriples();

  // Job 0 (supporting): per-user means for the Pearson global-mean variant.
  const std::vector<double> means =
      RunUserMeanJob(triples, matrix.num_users(), options_.mapreduce);

  // Jobs 1 + 2: candidates, the partial sufficient statistics, and the
  // peer-list artifact. Two layouts of the Job 1 -> Job 2 boundary share
  // the byte-identical-artifact contract: the classic in-memory moment
  // vector, and (under max_shuffle_bytes) the external-sort shuffle whose
  // runs Job 2 k-way-merge-reduces.
  std::vector<KeyValue<ItemId, std::vector<UserRating>>> candidate_items;
  if (options_.max_shuffle_bytes > 0) {
    MomentShuffleOptions shuffle_options;
    shuffle_options.max_buffer_bytes = options_.max_shuffle_bytes;
    shuffle_options.temp_dir = options_.shuffle_spill_dir;
    FAIRREC_ASSIGN_OR_RETURN(
        Job1SpilledOutput job1,
        RunJob1Spilled(triples, group, matrix.num_users(), shuffle_options,
                       options_.mapreduce, options_.moment_shards));
    result.job1_stats = job1.stats;
    result.num_candidate_items =
        static_cast<int64_t>(job1.candidate_items.size());
    result.num_co_rating_records = job1.co_rating_records;
    FAIRREC_ASSIGN_OR_RETURN(
        result.peer_index,
        RunJob2PeerIndex(job1.moments, means, options_.similarity,
                         options_.delta, matrix.num_users(),
                         /*max_peers_per_member=*/0, &result.job2_stats));
    result.shuffle_stats = job1.moments.stats();
    result.num_moment_records = result.shuffle_stats.groups_out;
    candidate_items = std::move(job1.candidate_items);
  } else {
    FAIRREC_ASSIGN_OR_RETURN(
        Job1Output job1,
        RunJob1(triples, group, matrix.num_users(), options_.mapreduce,
                options_.moment_shards));
    result.job1_stats = job1.stats;
    result.num_candidate_items =
        static_cast<int64_t>(job1.candidate_items.size());
    result.num_moment_records =
        static_cast<int64_t>(job1.partial_moments.size());
    result.num_co_rating_records = job1.co_rating_records;
    FAIRREC_ASSIGN_OR_RETURN(
        result.peer_index,
        RunJob2PeerIndex(job1.partial_moments, means, options_.similarity,
                         options_.delta, matrix.num_users(),
                         /*max_peers_per_member=*/0, options_.mapreduce,
                         &result.job2_stats));
    candidate_items = std::move(job1.candidate_items);
  }
  result.num_similarity_pairs = result.peer_index.num_entries();

  // Optional durable commit of the Job 2 artifact: a single-slice
  // PartialPeerArtifact, so the pipeline's peer graph enters the distributed
  // merge protocol unchanged (see PipelineOptions::artifact_path).
  if (!options_.artifact_path.empty()) {
    PartialPeerArtifact artifact;
    artifact.manifest.fingerprint = FingerprintCorpus(matrix);
    artifact.manifest.partition = MakePartition(0, 1, matrix.num_users());
    artifact.manifest.attempt = 0;
    artifact.manifest.similarity = options_.similarity;
    artifact.manifest.peers = result.peer_index.options();
    artifact.rows = result.peer_index;
    FAIRREC_RETURN_NOT_OK(artifact.WriteFile(options_.artifact_path));
    result.artifact_path = options_.artifact_path;
  }

  // Job 3: Eq. 1 per member + Def. 2 group relevance, straight off the
  // peer-list artifact (no per-pair re-sort).
  const auto relevance =
      RunJob3(candidate_items, result.peer_index, group,
              options_.aggregation, options_.mapreduce, &result.job3_stats);

  // Assemble the selector context in the same shape as the serial path; the
  // peer lists come out of the index already in the canonical order.
  std::vector<MemberRelevance> members(group.size());
  for (size_t m = 0; m < group.size(); ++m) {
    members[m].user = group[m];
    const auto peers = result.peer_index.PeersOf(group[m]);
    members[m].peers.assign(peers.begin(), peers.end());
  }
  // `relevance` is sorted by item id, so the per-member lists stay strictly
  // ascending as GroupContext::Build requires.
  for (const auto& kv : relevance) {
    for (size_t m = 0; m < group.size(); ++m) {
      const double score = kv.value.member_relevance[m];
      if (!std::isnan(score)) {
        members[m].relevance.push_back({kv.key, score});
      }
    }
  }
  GroupContextOptions context_options;
  context_options.aggregation = options_.aggregation;
  context_options.top_k = options_.top_k;
  context_options.require_all_members = options_.require_all_members;
  FAIRREC_ASSIGN_OR_RETURN(result.context,
                           GroupContext::Build(members, context_options));

  // "After these jobs have completed ... we perform Algorithm 1 in a
  // centralized manner." (§IV)
  const FairnessHeuristic heuristic(options_.heuristic);
  FAIRREC_ASSIGN_OR_RETURN(result.selection,
                           heuristic.Select(result.context, z));
  return result;
}

}  // namespace fairrec
