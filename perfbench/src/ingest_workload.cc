// ingest: rating writes beside reads through DurablePeerGraph. A fixed batch
// sequence (mostly 8..32 upserts, a burst of 256 every 50th batch, skewed
// item popularity, a few percent of upserts from brand-new users) is
// journaled and applied; Checkpoint() runs at fixed batch counts and a
// journal tail is left for the timed recovery (Open) that ends each play.
// After every batch a few user and group reads query the freshly published
// generation. The ratings, incremental sim and common blob layers do the
// work.

#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/blob_io.h"
#include "harness.h"
#include "queries.h"
#include "ratings/delta_journal.h"
#include "ratings/rating_delta.h"
#include "serve/recommendation_service.h"
#include "serve/snapshot_source.h"
#include "sim/durable_peer_graph.h"
#include "sim/incremental_peer_graph.h"
#include "sim/pairwise_engine.h"

namespace perfbench {
namespace {

using fairrec::DeltaApplyStats;
using fairrec::DurablePeerGraph;
using fairrec::IncrementalPeerGraph;
using fairrec::RatingDelta;
using fairrec::RatingMatrix;
using fairrec::serve::RecommendationService;
using fairrec::serve::ServingSnapshot;

struct IngestShape {
  CorpusShape corpus;
  /// Untraced runs play the whole phase — set-up, batch sequence,
  /// checkpoints, recovery — this many times from scratch, and take each
  /// timing metric from the best repeat (see BlockStat). Traced runs play it
  /// once.
  int32_t repeats = 1;
  /// Batches per repeat: a fixed count, or (primary phase) per requested
  /// second. The count never follows the clock, so every repeat and every
  /// run at one seed applies the same sequence. Two hundred batches leave
  /// ten beyond the p95.
  int32_t batches = 0;
  double batches_per_second = 0.0;
  int32_t checkpoint_every = 0;
  /// Batches left in the journal after the last checkpoint, replayed by the
  /// final recovery.
  int32_t journal_tail = 0;
  int32_t min_batch = 8;
  int32_t max_batch = 32;
  int32_t burst_every = 50;
  int32_t burst_size = 256;
};

IngestShape ShapeFor(Scale scale, bool primary) {
  if (scale == Scale::kTiny) return {{300, 150, 0.05}, 2, 24, 0.0, 10, 4, 4, 12, 8, 48};
  if (!primary) return {{1000, 1000, 0.02}, 3, 200, 0.0, 80, 10, 8, 32, 50, 256};
  return {{2500, 2000, 0.01}, 3, 0, 20.0, 100, 10, 8, 32, 50, 256};
}

constexpr double kNewUserShare = 0.03;
constexpr int32_t kUserReadsPerBatch = 4;
constexpr int32_t kGroupReadsPerBatch = 2;
/// Container tag of DurablePeerGraph's checkpoint blob (docs/durability.md);
/// the traced run reads the checkpoint through the public blob API.
constexpr uint32_t kCheckpointTypeTag = 0x43500001u;

fairrec::IncrementalPeerGraphOptions GraphOptions() {
  fairrec::IncrementalPeerGraphOptions options;
  options.engine.num_threads = 1;
  options.peers = PeerOptions();
  // Pinned planner: the patch-or-rebuild choice must not follow the clock.
  options.calibrate_planner = false;
  return options;
}

/// The fixed batch sequence of one seed.
std::vector<RatingDelta> MakeBatches(const IngestShape& shape, int32_t count,
                                     int32_t base_users, uint64_t seed) {
  fairrec::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x1d6e);
  std::vector<RatingDelta> batches(static_cast<size_t>(count));
  fairrec::UserId next_new_user = base_users;
  for (int32_t b = 0; b < count; ++b) {
    const int64_t size = b % shape.burst_every == shape.burst_every - 1
                             ? shape.burst_size
                             : rng.UniformInt(shape.min_batch, shape.max_batch);
    for (int64_t k = 0; k < size; ++k) {
      fairrec::UserId user;
      if (rng.NextBool(kNewUserShare)) {
        // Half the new-user upserts open a fresh account, half extend one.
        user = next_new_user == base_users || rng.NextBool(0.5)
                   ? next_new_user++
                   : static_cast<fairrec::UserId>(
                         rng.UniformInt(base_users, next_new_user - 1));
      } else {
        user = static_cast<fairrec::UserId>(rng.UniformInt(0, base_users - 1));
      }
      // Skewed popularity: low item ids are drawn far more often.
      const auto item = static_cast<fairrec::ItemId>(
          std::pow(rng.NextDouble(), 2.5) * shape.corpus.items);
      const auto value = static_cast<fairrec::Rating>(rng.UniformInt(1, 5));
      batches[static_cast<size_t>(b)].Add(user, item, value).CheckOK();
    }
    batches[static_cast<size_t>(b)].upserts();  // finalize before timing
  }
  return batches;
}

std::string Bytes(const RatingMatrix& matrix) {
  std::string out;
  matrix.SerializeTo(out);
  return out;
}

std::string Bytes(const fairrec::PeerIndex& index) {
  std::string out;
  index.SerializeTo(out);
  return out;
}

ServingSnapshot Publish(uint64_t seq, const IncrementalPeerGraph& graph) {
  return ServingSnapshot{seq + 1, graph.matrix_snapshot(), graph.index()};
}

/// Per-layer seconds of the traced run.
struct IngestTrace {
  double update_e2e = 0.0;
  int64_t batches = 0;
  double journal_append = 0.0;
  double matrix_merge = 0.0;
  double incremental_apply = 0.0;

  double checkpoint_e2e = 0.0;
  int64_t checkpoints = 0;
  double matrix_serialize = 0.0;
  double store_serialize = 0.0;
  double index_serialize = 0.0;
  double blob_write = 0.0;

  double recovery_e2e = 0.0;
  double blob_read = 0.0;
  double matrix_deserialize = 0.0;
  double store_deserialize = 0.0;
  double index_deserialize = 0.0;
  double recovery_assemble = 0.0;
  double replay = 0.0;
};

/// The checkpoint write decomposed into the public calls DurablePeerGraph
/// makes, against a scratch file on the same filesystem.
fairrec::Status TraceCheckpoint(const DurablePeerGraph& durable,
                                const std::string& path, IngestTrace* trace) {
  const IncrementalPeerGraph& graph = durable.graph();
  std::string matrix_bytes;
  std::string store_bytes;
  std::string index_bytes;
  double start = CpuNow();
  graph.matrix().SerializeTo(matrix_bytes);
  trace->matrix_serialize += CpuNow() - start;
  start = CpuNow();
  graph.store().SerializeTo(store_bytes);
  trace->store_serialize += CpuNow() - start;
  start = CpuNow();
  graph.index()->SerializeTo(index_bytes);
  trace->index_serialize += CpuNow() - start;
  start = CpuNow();
  std::string payload;
  {
    fairrec::BlobWriter writer(&payload);
    writer.U64(durable.applied_seq());
    writer.Framed(matrix_bytes);
    writer.Framed(store_bytes);
    writer.Framed(index_bytes);
  }
  const fairrec::Status status =
      fairrec::WriteBlobFileAtomic(path, kCheckpointTypeTag, payload);
  trace->blob_write += CpuNow() - start;
  return status;
}

/// Recovery decomposed into the public calls Open makes: read and verify
/// the checkpoint container, deserialize the three artifacts, assemble the
/// graph, replay the journal tail.
fairrec::Status TraceRecovery(const std::string& dir, IngestTrace* trace) {
  double start = CpuNow();
  FAIRREC_ASSIGN_OR_RETURN(
      const std::string payload,
      fairrec::ReadBlobFile(DurablePeerGraph::CheckpointPathOf(dir), kCheckpointTypeTag));
  trace->blob_read += CpuNow() - start;
  fairrec::BlobReader reader(payload);
  uint64_t checkpoint_seq = 0;
  std::string_view matrix_bytes;
  std::string_view store_bytes;
  std::string_view index_bytes;
  if (!reader.U64(&checkpoint_seq)) return fairrec::Status::DataLoss("short checkpoint");
  FAIRREC_RETURN_NOT_OK(reader.FramedSection(&matrix_bytes));
  FAIRREC_RETURN_NOT_OK(reader.FramedSection(&store_bytes));
  FAIRREC_RETURN_NOT_OK(reader.FramedSection(&index_bytes));

  start = CpuNow();
  FAIRREC_ASSIGN_OR_RETURN(RatingMatrix matrix, RatingMatrix::Deserialize(matrix_bytes));
  trace->matrix_deserialize += CpuNow() - start;
  start = CpuNow();
  FAIRREC_ASSIGN_OR_RETURN(fairrec::MomentStore store,
                           fairrec::MomentStore::Deserialize(store_bytes));
  trace->store_deserialize += CpuNow() - start;
  start = CpuNow();
  FAIRREC_ASSIGN_OR_RETURN(fairrec::PeerIndex index, fairrec::PeerIndex::Deserialize(index_bytes));
  trace->index_deserialize += CpuNow() - start;

  start = CpuNow();
  FAIRREC_ASSIGN_OR_RETURN(
      IncrementalPeerGraph graph,
      IncrementalPeerGraph::FromArtifacts(std::move(matrix), std::move(store),
                                          std::move(index), GraphOptions()));
  FAIRREC_ASSIGN_OR_RETURN(fairrec::DeltaJournal journal,
                           fairrec::DeltaJournal::Open(DurablePeerGraph::JournalPathOf(dir)));
  FAIRREC_ASSIGN_OR_RETURN(fairrec::DeltaJournal::ReplayResult replay, journal.Replay());
  trace->recovery_assemble += CpuNow() - start;

  start = CpuNow();
  for (const fairrec::DeltaJournal::Record& record : replay.records) {
    if (record.seq <= checkpoint_seq) continue;
    FAIRREC_RETURN_NOT_OK(graph.ApplyDelta(record.delta).status());
  }
  trace->replay += CpuNow() - start;
  return fairrec::Status::OK();
}

class IngestPhase final : public Phase {
 public:
  IngestPhase(const Args& args, bool primary, Report& report)
      : args_(args),
        primary_(primary),
        report_(report),
        shape_(ShapeFor(args.scale, primary)),
        repeats_(args.trace ? 1 : shape_.repeats),
        dir_(args.state_dir + "/durable") {}

  int SetUp() override;
  int32_t num_blocks() const override { return repeats_; }
  /// One play: set-up, the batch sequence with its reads and checkpoints,
  /// and the recovery.
  void RunBlock(int32_t rep) override;
  void Finish() override;

 private:
  const Args& args_;
  const bool primary_;
  Report& report_;
  const IngestShape shape_;
  const int32_t repeats_;
  const std::string dir_;

  std::vector<RatingDelta> batches_;
  int32_t num_batches_ = 0;
  int32_t base_users_ = 0;

  // Per play.
  std::vector<double> setup_seconds_;
  std::vector<std::vector<double>> update_ms_ =
      std::vector<std::vector<double>>(static_cast<size_t>(repeats_));
  std::vector<std::vector<double>> user_ms_ =
      std::vector<std::vector<double>>(static_cast<size_t>(repeats_));
  std::vector<std::vector<double>> group_ms_ =
      std::vector<std::vector<double>>(static_cast<size_t>(repeats_));
  std::vector<double> ingest_ups_;
  std::vector<double> checkpoint_s_;
  std::vector<double> recovery_s_;
  int64_t failed_updates_ = 0;
  int64_t failed_users_ = 0;
  int64_t failed_groups_ = 0;
  int64_t reads_compared_ = 0;
  int64_t read_mismatches_ = 0;

  // Traced run (one play).
  IngestTrace trace_;
  DeltaApplyStats totals_;
  int64_t full_rebuilds_ = 0;
  uint64_t checkpoint_bytes_ = 0;
};

int IngestPhase::SetUp() {
  const RatingMatrix seed_matrix = GenerateCorpus(shape_.corpus, args_.seed);
  base_users_ = seed_matrix.num_users();
  num_batches_ = static_cast<int32_t>(std::max<double>(
      shape_.checkpoint_every + shape_.journal_tail,
      shape_.batches > 0 ? shape_.batches
                        : std::llround(args_.seconds * shape_.batches_per_second)));
  batches_ = MakeBatches(shape_, num_batches_, base_users_, args_.seed);
  int64_t total_upserts = 0;
  for (const RatingDelta& batch : batches_) total_upserts += batch.size();
  report_.Env("ingest.corpus", std::to_string(base_users_) + " users x " +
                                  std::to_string(seed_matrix.num_items()) + " items, " +
                                  std::to_string(seed_matrix.num_ratings()) + " ratings");
  report_.Env("ingest.repeats", static_cast<double>(repeats_));
  report_.Env("ingest.batches", static_cast<double>(num_batches_));
  report_.Env("ingest.upserts", static_cast<double>(total_upserts));
  report_.Env("ingest.checkpoint_every", static_cast<double>(shape_.checkpoint_every));
  return 0;
}

void IngestPhase::RunBlock(int32_t rep) {
  const bool last = rep == repeats_ - 1;
  // Set-up: corpus, seed build, initial checkpoint.
  std::filesystem::remove_all(dir_);
  const double setup_start = CpuNow();
  RatingMatrix seed_matrix = GenerateCorpus(shape_.corpus, args_.seed);
  auto opened = DurablePeerGraph::Open(dir_, seed_matrix, GraphOptions());
  setup_seconds_.push_back(CpuNow() - setup_start);
  report_.Attempt("ingest.setup", opened.status());
  if (!opened.ok()) return;
  std::optional<DurablePeerGraph> durable(std::move(opened).value());

  // Checkpoints every checkpoint_every batches and once more where the
  // journal tail starts.
  const int32_t tail_start = num_batches_ - shape_.journal_tail;

  // Reads go through the service's ...On calls on the freshly assembled
  // generation; the source is only the service's required default.
  fairrec::serve::StaticSnapshotSource initial_source(
      durable->graph().matrix_snapshot(), durable->graph().index());
  const RecommendationService service(&initial_source, ServiceOptions());
  RecommendationService::Scratch scratch;
  fairrec::Rng read_rng(args_.seed * 0xbf58476d1ce4e5b9ull + 0x4ead);

  // The traced run mirrors every batch on a twin graph and journal so each
  // layer is timed by its own public call. The twin's work is the cost of
  // the trace: it runs outside the timed update.
  std::optional<IncrementalPeerGraph> twin;
  std::optional<fairrec::DeltaJournal> twin_journal;
  if (args_.trace) {
    twin.emplace(
        std::move(IncrementalPeerGraph::Build(seed_matrix, GraphOptions())).ValueOrDie());
    twin_journal.emplace(std::move(fairrec::DeltaJournal::Open(
                                       args_.state_dir + "/trace-journal.frj"))
                             .ValueOrDie());
  }

  double apply_seconds = 0.0;
  int64_t applied_upserts = 0;
  std::vector<double> checkpoints;
  int32_t last_checkpoint_batch = 0;
  for (int32_t b = 0; b < num_batches_; ++b) {
    const RatingDelta& batch = batches_[static_cast<size_t>(b)];
    const double t0 = CpuNow();
    auto applied = durable->ApplyDelta(batch);
    const ServingSnapshot snapshot = Publish(durable->applied_seq(), durable->graph());
    const double e2e = CpuNow() - t0;
    report_.Attempt("ingest.update", applied.status());
    if (applied.ok()) {
      update_ms_[static_cast<size_t>(rep)].push_back(e2e * 1e3);
      apply_seconds += e2e;
      applied_upserts += applied->num_upserts;
      if (last) {
        totals_.changed_pairs += applied->changed_pairs;
        totals_.refinished_pairs += applied->refinished_pairs;
        totals_.rows_refinished += applied->rows_refinished;
        totals_.rows_patched += applied->rows_patched;
        full_rebuilds_ += applied->used_full_rebuild ? 1 : 0;
      }
    } else {
      ++failed_updates_;
    }

    if (args_.trace) {
      const uint64_t seq = durable->applied_seq();
      double start = CpuNow();
      const fairrec::Status appended = twin_journal->Append(seq, batch);
      const double journal = CpuNow() - start;
      const std::shared_ptr<const RatingMatrix> before = twin->matrix_snapshot();
      start = CpuNow();
      const bool merged = batch.ApplyTo(*before).ok();
      const double merge = CpuNow() - start;
      start = CpuNow();
      const bool twin_applied = twin->ApplyDelta(batch).ok();
      const double apply = CpuNow() - start;
      report_.Check("trace.twin_apply", appended.ok() && merged && twin_applied,
                   "twin journal/merge/apply failed at batch " + std::to_string(b));
      ++trace_.batches;
      trace_.update_e2e += e2e;
      trace_.journal_append += journal;
      trace_.matrix_merge += merge;
      trace_.incremental_apply += apply - merge;
    }

    // Single-user reads cover every account, new ones included. Group
    // members are drawn from the seed corpus's users: a group made only of
    // accounts with one or two ratings has no candidate item, which the
    // service answers OutOfRange by contract; such a request measures no
    // work. Any failure that does occur is still counted.
    for (int32_t r = 0; r < kUserReadsPerBatch + kGroupReadsPerBatch; ++r) {
      const bool user_read = r < kUserReadsPerBatch;
      const Request request = DrawRequest(
          read_rng, *snapshot.peers,
          user_read ? snapshot.matrix->num_users() : base_users_, user_read ? 1.0 : 0.0);
      const bool compare = r == 0 && b % 8 == 0;
      const double start = CpuNow();
      if (request.is_group) {
        auto response = service.RecommendGroupOn(snapshot, request.group, scratch);
        const double ms = (CpuNow() - start) * 1e3;
        report_.Attempt("ingest.group_read", response.status());
        if (response.ok()) {
          group_ms_[static_cast<size_t>(rep)].push_back(ms);
        } else {
          ++failed_groups_;
        }
      } else {
        auto response = service.RecommendUserOn(snapshot, request.user, scratch);
        const double ms = (CpuNow() - start) * 1e3;
        report_.Attempt("ingest.user_read", response.status());
        if (response.ok()) {
          user_ms_[static_cast<size_t>(rep)].push_back(ms);
        } else {
          ++failed_users_;
        }
        if (compare && response.ok()) {
          LayerTimes layers;
          ++reads_compared_;
          auto items = RunUserLayers(service, snapshot, request.user, scratch, &layers);
          if (!items.ok() || !SameUserResponse(*items, snapshot, *response)) {
            ++read_mismatches_;
          }
        }
      }
    }

    if (b + 1 <= tail_start &&
        ((b + 1) % shape_.checkpoint_every == 0 || b + 1 == tail_start)) {
      const double start = CpuNow();
      const fairrec::Status status = durable->Checkpoint();
      const double seconds = CpuNow() - start;
      report_.Attempt("ingest.checkpoint", status);
      checkpoints.push_back(seconds);
      last_checkpoint_batch = b + 1;
      if (args_.trace) {
        trace_.checkpoint_e2e += seconds;
        ++trace_.checkpoints;
        report_.Attempt("trace.checkpoint",
                       TraceCheckpoint(*durable, args_.state_dir + "/trace-checkpoint.frb",
                                       &trace_));
        report_.Attempt("trace.checkpoint", twin_journal->Clear());
      }
    }
  }
  ingest_ups_.push_back(static_cast<double>(applied_upserts) / apply_seconds);
  checkpoint_s_.push_back(Mean(checkpoints));
  const int64_t journal_tail = num_batches_ - last_checkpoint_batch;

  // Output checks on the live state.
  const uint64_t live_seq = durable->applied_seq();
  const std::string live_matrix = Bytes(durable->graph().matrix());
  const std::string live_index = Bytes(*durable->graph().index());
  if (last) {
    // The final index equals a from-scratch build of the final corpus.
    fairrec::PairwiseEngineOptions engine_options;
    engine_options.num_threads = 1;
    const fairrec::PairwiseSimilarityEngine engine(&durable->graph().matrix(), {},
                                                   engine_options);
    auto rebuilt = engine.BuildPeerIndex(PeerOptions());
    report_.Check("ingest.index_matches_full_rebuild",
                 rebuilt.ok() && Bytes(*rebuilt) == live_index,
                 "incrementally maintained index differs from BuildPeerIndex");
    report_.Env("ingest.journal_tail_batches", static_cast<double>(journal_tail));
    checkpoint_bytes_ = std::filesystem::file_size(DurablePeerGraph::CheckpointPathOf(dir_));
  }
  if (args_.trace) {
    report_.Check("trace.twin_matches_durable", Bytes(*twin->index()) == live_index,
                 "the traced twin graph drifted from the durable graph");
  }
  durable.reset();
  twin.reset();
  twin_journal.reset();

  if (args_.trace) report_.Attempt("trace.recovery", TraceRecovery(dir_, &trace_));

  // Timed recovery: Open over the last checkpoint plus the journal tail.
  const double start = CpuNow();
  auto recovered = DurablePeerGraph::Open(dir_, RatingMatrix(), GraphOptions());
  recovery_s_.push_back(CpuNow() - start);
  report_.Attempt("ingest.recovery", recovered.status());
  const bool same = recovered.ok() && recovered->applied_seq() == live_seq &&
                    recovered->recovery_info().replayed_batches == journal_tail &&
                    Bytes(recovered->graph().matrix()) == live_matrix &&
                    Bytes(*recovered->graph().index()) == live_index;
  report_.Check("ingest.recovered_state_matches_live", same,
               "recovery in repeat " + std::to_string(rep) + " differs from the live state");
  if (args_.trace) trace_.recovery_e2e = recovery_s_.back();
}

void IngestPhase::Finish() {
  report_.Check("ingest.reads_match_decomposed_pipeline",
               reads_compared_ > 0 && read_mismatches_ == 0,
               std::to_string(read_mismatches_) + " of " + std::to_string(reads_compared_));

  if (!args_.trace) {
    const auto latency = [this](const char* name, const BlockStat& stat) {
      report_.Metric(name, stat.value, "ms", stat.samples);
    };
    // As a probe, the reads only feed the output checks; the serve phase
    // owns the read latencies.
    if (primary_) {
      report_.Metric("setup_s", Median(setup_seconds_), "s",
                    static_cast<int64_t>(setup_seconds_.size()));
      latency("user_p50_ms", BestPercentile(user_ms_, 0.50, failed_users_));
      latency("group_p50_ms", BestPercentile(group_ms_, 0.50, failed_groups_));
    }
    report_.Metric("ingest_ups", Best(ingest_ups_, /*lower=*/false), "upserts/s", num_batches_);
    latency("update_p50_ms", BestPercentile(update_ms_, 0.50, failed_updates_));
    latency("update_p95_ms", MedianPercentile(update_ms_, 0.95, failed_updates_));
    report_.Metric("checkpoint_s", Best(checkpoint_s_, /*lower=*/true), "s",
                  static_cast<int64_t>(checkpoint_s_.size()));
    report_.Metric("recovery_s", Best(recovery_s_, /*lower=*/true), "s",
                  static_cast<int64_t>(recovery_s_.size()));
    report_.Note("ingest: timing metrics are the best of " + std::to_string(repeats_) +
                 " plays of the whole phase, update_p95_ms the median of their p95");
    return;
  }

  const auto per = [](double total, int64_t n) {
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };
  const int64_t checkpoints = trace_.checkpoints;
  const double update_layers = trace_.journal_append + trace_.matrix_merge + trace_.incremental_apply;
  const double checkpoint_layers = trace_.matrix_serialize + trace_.store_serialize +
                                   trace_.index_serialize + trace_.blob_write;
  const double recovery_layers = trace_.blob_read + trace_.matrix_deserialize +
                                 trace_.store_deserialize + trace_.index_deserialize +
                                 trace_.recovery_assemble + trace_.replay;
  const double e2e_total = trace_.update_e2e + trace_.checkpoint_e2e + trace_.recovery_e2e;
  const double sum_ratio = (update_layers + checkpoint_layers + recovery_layers) / e2e_total;
  constexpr double kSumTolerance = 0.25;
  const int64_t tb = trace_.batches;
  report_.Metric("ratings.journal_append_ms", per(trace_.journal_append, tb) * 1e3, "ms", tb);
  report_.Metric("ratings.matrix_merge_ms", per(trace_.matrix_merge, tb) * 1e3, "ms", tb);
  report_.Metric("sim.incremental_apply_ms", per(trace_.incremental_apply, tb) * 1e3, "ms", tb);
  report_.Metric("ratings.matrix_serialize_s", per(trace_.matrix_serialize, checkpoints), "s",
                checkpoints);
  report_.Metric("sim.store_serialize_s", per(trace_.store_serialize, checkpoints), "s",
                checkpoints);
  report_.Metric("sim.index_serialize_s", per(trace_.index_serialize, checkpoints), "s",
                checkpoints);
  report_.Metric("common.blob_write_s", per(trace_.blob_write, checkpoints), "s", checkpoints);
  report_.Metric("common.blob_read_s", trace_.blob_read, "s", 1);
  report_.Metric("ratings.matrix_deserialize_s", trace_.matrix_deserialize, "s", 1);
  report_.Metric("sim.store_deserialize_s", trace_.store_deserialize, "s", 1);
  report_.Metric("sim.index_deserialize_s", trace_.index_deserialize, "s", 1);
  report_.Metric("sim.recovery_assemble_s", trace_.recovery_assemble, "s", 1);
  report_.Metric("sim.replay_s", trace_.replay, "s", 1);
  report_.Metric("sim.changed_pairs", static_cast<double>(totals_.changed_pairs), "count");
  report_.Metric("sim.refinished_pairs", static_cast<double>(totals_.refinished_pairs), "count");
  report_.Metric("sim.rows_refinished", static_cast<double>(totals_.rows_refinished), "count");
  report_.Metric("sim.rows_patched", static_cast<double>(totals_.rows_patched), "count");
  report_.Metric("sim.full_rebuilds", static_cast<double>(full_rebuilds_), "count");
  report_.Metric("common.checkpoint_bytes", static_cast<double>(checkpoint_bytes_), "count");
  // The twin's journal append, extra merge and apply run beside every timed
  // update: the traced run's update work over the untraced run's.
  report_.Metric("trace.ingest_overhead_ratio",
                (trace_.update_e2e + trace_.journal_append + 2.0 * trace_.matrix_merge +
                 trace_.incremental_apply) /
                    trace_.update_e2e,
                "ratio");
  report_.Metric("trace.ingest_layer_sum_ratio", sum_ratio, "ratio");
  report_.Note("ingest: update layers sum to " + std::to_string(update_layers / trace_.update_e2e) +
              ", checkpoint layers to " + std::to_string(checkpoint_layers / trace_.checkpoint_e2e) +
              ", recovery layers to " + std::to_string(recovery_layers / trace_.recovery_e2e) +
              " of their traced end-to-end time; overall " + std::to_string(sum_ratio) +
              " (tolerance +-" + std::to_string(kSumTolerance) + ")");
  report_.Check("trace.ingest_layers_sum_to_end_to_end",
               std::fabs(sum_ratio - 1.0) <= kSumTolerance,
               "layer sum ratio " + std::to_string(sum_ratio));
}

}  // namespace

std::unique_ptr<Phase> MakeIngestPhase(const Args& args, bool primary, Report& report) {
  return std::make_unique<IngestPhase>(args, primary, report);
}

}  // namespace perfbench
