// serve: read-only traffic over a static snapshot. One client runs a closed
// loop through RecommendationService — 70% single-user queries, 30% group
// queries (2..6 members, half random, half cohesive) under algorithm1. The
// cf and core layers do nearly all the work; build and update are idle.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.h"
#include "queries.h"
#include "serve/recommendation_service.h"
#include "serve/snapshot_source.h"
#include "sim/pairwise_engine.h"

namespace perfbench {
namespace {

using fairrec::serve::RecommendationService;
using fairrec::serve::ServingSnapshot;
using fairrec::serve::StaticSnapshotSource;

struct ServeShape {
  CorpusShape corpus;
  int32_t setup_repeats = 1;
  /// Timed requests: a fixed count, or (primary phase) per requested second.
  /// The work never follows the clock, so every run at one seed sends the
  /// same requests. Each of the kBlocks blocks holds at least a thousand
  /// group requests, so every block's p99 has ten samples beyond it.
  int64_t requests = 0;
  double requests_per_second = 0.0;
  int32_t warmup_requests = 0;
  /// Share of single-user requests. The probe sends more of them: a user
  /// request takes some 25 us there, so its p99 needs thousands per block.
  double user_share = 0.7;
};

ServeShape ShapeFor(Scale scale, bool primary) {
  if (scale == Scale::kTiny) return {{400, 200, 0.05}, 1, 2000, 0.0, 16, 0.7};
  if (!primary) return {{2000, 1000, 0.02}, 1, 50000, 0.0, 256, 0.9};
  return {{10000, 2000, 0.01}, 3, 0, 2500.0, 512, 0.7};
}

constexpr int32_t kBlocks = 5;
constexpr auto kBlockCount = static_cast<size_t>(kBlocks);
/// Every kCheckEvery-th untraced request is re-run through the decomposed
/// layer pipeline and compared; traced requests are all compared.
constexpr int64_t kCheckEvery = 64;

/// Set-up: corpus and peer graph.
std::unique_ptr<StaticSnapshotSource> BuildSource(const ServeShape& shape, uint64_t seed) {
  auto matrix = std::make_shared<const fairrec::RatingMatrix>(
      GenerateCorpus(shape.corpus, seed));
  fairrec::PairwiseEngineOptions engine_options;
  engine_options.num_threads = 1;
  const fairrec::PairwiseSimilarityEngine engine(matrix.get(), {}, engine_options);
  auto index = std::make_shared<const fairrec::PeerIndex>(
      std::move(engine.BuildPeerIndex(PeerOptions())).ValueOrDie());
  return std::make_unique<StaticSnapshotSource>(matrix, index);
}

struct TraceTotals {
  int64_t users = 0;
  int64_t groups = 0;
  // Traced requests, seconds: end to end and Acquire, per request type.
  double user_e2e = 0.0;
  double group_e2e = 0.0;
  double user_acquire = 0.0;
  double group_acquire = 0.0;
  double untraced_e2e = 0.0;
  int64_t untraced = 0;
  double user = 0.0;
  double group_relevance = 0.0;
  double group_context = 0.0;
  double select = 0.0;
  int64_t members = 0;
  int64_t member_peers = 0;
  int64_t candidates = 0;
};

class ServePhase final : public Phase {
 public:
  ServePhase(const Args& args, bool primary, Report& report)
      : args_(args), primary_(primary), report_(report), shape_(ShapeFor(args.scale, primary)) {}

  int SetUp() override;
  int32_t num_blocks() const override { return kBlocks; }
  void RunBlock(int32_t block) override;
  void Finish() override;

 private:
  void ReportTrace();

  const Args& args_;
  const bool primary_;
  Report& report_;
  const ServeShape shape_;

  std::vector<double> setup_seconds_;
  std::unique_ptr<StaticSnapshotSource> source_;
  std::unique_ptr<RecommendationService> service_;
  RecommendationService::Scratch scratch_;
  /// The request sequence: a pure function of the seed and the seconds
  /// argument, generated before timing starts. Warm-up requests first.
  std::vector<Request> requests_;
  int64_t timed_ = 0;

  // Untraced requests, per block.
  std::vector<std::vector<double>> user_ms_ = std::vector<std::vector<double>>(kBlockCount);
  std::vector<std::vector<double>> group_ms_ = std::vector<std::vector<double>>(kBlockCount);
  std::vector<double> busy_seconds_ = std::vector<double>(kBlockCount, 0.0);
  std::vector<double> completed_ = std::vector<double>(kBlockCount, 0.0);
  int64_t failed_users_ = 0;
  int64_t failed_groups_ = 0;
  int64_t compared_ = 0;
  int64_t mismatches_ = 0;
  uint64_t digest_ = Fnv1a("");
  TraceTotals trace_;
};

int ServePhase::SetUp() {
  for (int32_t r = 0; r < shape_.setup_repeats; ++r) {
    service_.reset();
    source_.reset();
    const double start = CpuNow();
    source_ = BuildSource(shape_, args_.seed);
    setup_seconds_.push_back(CpuNow() - start);
  }
  service_ = std::make_unique<RecommendationService>(source_.get(), ServiceOptions());
  const ServingSnapshot snapshot = source_->Acquire();
  const int32_t num_users = snapshot.matrix->num_users();
  report_.Env("serve.corpus", std::to_string(num_users) + " users x " +
                                  std::to_string(snapshot.matrix->num_items()) + " items, " +
                                  std::to_string(snapshot.matrix->num_ratings()) + " ratings");

  timed_ = shape_.requests > 0
               ? shape_.requests
               : std::max<int64_t>(kBlocks, std::llround(args_.seconds * shape_.requests_per_second));
  fairrec::Rng rng(args_.seed * 0x2545f4914f6cdd1dull + 0x5e7e);
  requests_.reserve(static_cast<size_t>(timed_ + shape_.warmup_requests));
  for (int64_t i = 0; i < timed_ + shape_.warmup_requests; ++i) {
    requests_.push_back(DrawRequest(rng, *snapshot.peers, num_users, shape_.user_share));
  }
  for (int32_t i = 0; i < shape_.warmup_requests; ++i) {
    const Request& request = requests_[static_cast<size_t>(i)];
    report_.Attempt("serve.warmup",
                    request.is_group
                        ? service_->RecommendGroup(request.group, scratch_).status()
                        : service_->RecommendUser(request.user, scratch_).status());
  }
  return 0;
}

void ServePhase::RunBlock(int32_t block) {
  const RecommendationService& service = *service_;
  const auto b = static_cast<size_t>(block);
  for (int64_t i = timed_ * block / kBlocks; i < timed_ * (block + 1) / kBlocks; ++i) {
    const Request& request = requests_[static_cast<size_t>(shape_.warmup_requests + i)];
    // In the traced run every other request is traced, so the untraced half
    // measures the instrumentation's overhead on the same mix. Traced
    // requests alternate between running the layer calls before and after
    // the service call: the second finds the request's rows in cache, and
    // alternating gives that advantage to each side half the time.
    const bool traced = args_.trace && i % 2 == 1;
    const bool layers_first = traced && (i / 2) % 2 == 0;
    const bool compare = traced || i % kCheckEvery == 0;
    LayerTimes layers;
    bool matches = true;
    double e2e = 0.0;
    double acquire = 0.0;
    ServingSnapshot acquired;
    if (traced) {
      const double t0 = CpuNow();
      acquired = source_->Acquire();
      acquire = CpuNow() - t0;
    }
    fairrec::Status status;
    if (request.is_group) {
      GroupLayers computed;
      bool computed_ok = false;
      const auto run_layers = [&] {
        computed_ok = RunGroupLayers(service, acquired, request.group, scratch_, &computed,
                                     &layers);
      };
      if (layers_first) run_layers();
      const double t0 = CpuNow();
      fairrec::Result<fairrec::serve::GroupRecResponse> response =
          traced ? service.RecommendGroupOn(acquired, request.group, scratch_)
                 : service.RecommendGroup(request.group, scratch_);
      e2e = acquire + (CpuNow() - t0);
      status = response.status();
      if (response.ok()) {
        digest_ = Digest(*response, digest_);
        if (compare) {
          if (!traced) acquired = source_->Acquire();
          if (!layers_first) run_layers();
          matches = computed_ok && SameGroupResponse(computed, acquired, *response);
        }
      }
      report_.Attempt("serve.group", status);
      if (!traced && status.ok()) group_ms_[b].push_back(e2e * 1e3);
      if (!traced && !status.ok()) ++failed_groups_;
    } else {
      fairrec::Result<std::vector<fairrec::ScoredItem>> computed =
          fairrec::Status::Internal("not run");
      const auto run_layers = [&] {
        computed = RunUserLayers(service, acquired, request.user, scratch_, &layers);
      };
      if (layers_first) run_layers();
      const double t0 = CpuNow();
      fairrec::Result<fairrec::serve::UserRecResponse> response =
          traced ? service.RecommendUserOn(acquired, request.user, scratch_)
                 : service.RecommendUser(request.user, scratch_);
      e2e = acquire + (CpuNow() - t0);
      status = response.status();
      if (response.ok()) {
        digest_ = Digest(*response, digest_);
        if (compare) {
          if (!traced) acquired = source_->Acquire();
          if (!layers_first) run_layers();
          matches = computed.ok() && SameUserResponse(*computed, acquired, *response);
        }
      }
      report_.Attempt("serve.user", status);
      if (!traced && status.ok()) user_ms_[b].push_back(e2e * 1e3);
      if (!traced && !status.ok()) ++failed_users_;
    }
    if (!status.ok()) digest_ = Fnv1a(status.ToString(), digest_);
    if (compare && status.ok()) {
      ++compared_;
      if (!matches) ++mismatches_;
    }
    if (!traced) {
      busy_seconds_[b] += e2e;
      if (status.ok()) completed_[b] += 1.0;
      trace_.untraced_e2e += e2e;
      ++trace_.untraced;
      continue;
    }
    if (request.is_group) {
      ++trace_.groups;
      trace_.group_e2e += e2e;
      trace_.group_acquire += acquire;
      trace_.group_relevance += layers.group_relevance;
      trace_.group_context += layers.group_context;
      trace_.select += layers.select;
      trace_.members += layers.members;
      trace_.member_peers += layers.member_peers;
      trace_.candidates += layers.candidates;
    } else {
      ++trace_.users;
      trace_.user_e2e += e2e;
      trace_.user_acquire += acquire;
      trace_.user += layers.user;
    }
  }
}

void ServePhase::Finish() {
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64, digest_);
  report_.Env("serve.response_digest", digest_hex);
  report_.Env("serve.timed_requests", static_cast<double>(timed_));
  report_.Check("serve.decomposed_pipeline_matches_service",
                compared_ > 0 && mismatches_ == 0,
                std::to_string(mismatches_) + " of " + std::to_string(compared_) +
                    " sampled responses differ from the layer-by-layer pipeline");
  report_.Note("serve: compared " + std::to_string(compared_) +
               " responses against the decomposed pipeline; throughput and p50 from the best of " +
               std::to_string(kBlocks) + " blocks of " + std::to_string(timed_ / kBlocks) +
               " requests, p99 the median of the blocks' p99");
  if (args_.trace) {
    ReportTrace();
    return;
  }
  if (primary_) {
    report_.Metric("setup_s", Median(setup_seconds_), "s",
                   static_cast<int64_t>(setup_seconds_.size()));
  }
  std::vector<double> qps(kBlockCount, 0.0);
  for (size_t b = 0; b < kBlockCount; ++b) {
    if (busy_seconds_[b] > 0.0) qps[b] = completed_[b] / busy_seconds_[b];
  }
  report_.Metric("serve_qps", Best(qps, /*lower=*/false), "1/s", timed_ / kBlocks);
  const auto latency = [this](const char* name, const BlockStat& stat) {
    report_.Metric(name, stat.value, "ms", stat.samples);
  };
  // On the ingest workload the p50s belong to the reads beside writes.
  if (args_.workload != "ingest") {
    latency("user_p50_ms", BestPercentile(user_ms_, 0.50, failed_users_));
    latency("group_p50_ms", BestPercentile(group_ms_, 0.50, failed_groups_));
  }
  latency("user_p99_ms", MedianPercentile(user_ms_, 0.99, failed_users_));
  latency("group_p99_ms", MedianPercentile(group_ms_, 0.99, failed_groups_));
}

void ServePhase::ReportTrace() {
  const TraceTotals& trace = trace_;
  Report& report = report_;
  const auto per = [](double total, int64_t n) {
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };
  const int64_t traced_requests = trace.users + trace.groups;
  const double e2e = trace.user_e2e + trace.group_e2e;
  const double acquire = trace.user_acquire + trace.group_acquire;
  const double group_layers = trace.group_relevance + trace.group_context + trace.select;
  const double group_rest = trace.group_e2e - trace.group_acquire - group_layers;
  // Each ratio compares layer calls timed on their own with the service's
  // call (end to end minus Acquire) on the same requests; the group rest is
  // derived and takes no part in them. A negative rest (layer calls slower
  // than the service that makes them) is reported; on the small probe
  // corpora it is within the noise of the alternation.
  const auto ratio = [](double layers, double service) {
    return service > 0.0 ? layers / service : 0.0;
  };
  const double user_ratio = ratio(trace.user, trace.user_e2e - trace.user_acquire);
  const double group_ratio = ratio(group_layers, trace.group_e2e - trace.group_acquire);
  const double sum_ratio = ratio(acquire + trace.user + group_layers, e2e);
  // The layer calls leave out the service's request checks and response
  // assembly; at the sizes this benchmark runs they cover 0.95 to 1.03 of
  // the user requests' service time and 0.89 to 0.99 of the group requests'.
  constexpr double kSumTolerance = 0.15;
  report.Metric("serve.acquire_ms", per(acquire, traced_requests) * 1e3, "ms",
                traced_requests);
  report.Metric("cf.user_ms", per(trace.user, trace.users) * 1e3, "ms", trace.users);
  report.Metric("cf.group_relevance_ms", per(trace.group_relevance, trace.groups) * 1e3,
                "ms", trace.groups);
  report.Metric("core.group_context_ms", per(trace.group_context, trace.groups) * 1e3,
                "ms", trace.groups);
  report.Metric("core.select_ms", per(trace.select, trace.groups) * 1e3, "ms",
                trace.groups);
  report.Metric("serve.group_rest_ms", per(group_rest, trace.groups) * 1e3, "ms",
                trace.groups);
  report.Metric("cf.peers_per_member",
                per(static_cast<double>(trace.member_peers), trace.members), "count");
  report.Metric("core.candidates_per_group",
                per(static_cast<double>(trace.candidates), trace.groups), "count");
  report.Metric("trace.serve_overhead_ratio",
                per(e2e, traced_requests) / per(trace.untraced_e2e, trace.untraced),
                "ratio");
  report.Metric("trace.serve_layer_sum_ratio", sum_ratio, "ratio");
  report.Note("serve: layer calls cover " + std::to_string(user_ratio) +
              " of the user requests' and " + std::to_string(group_ratio) +
              " of the group requests' service time (tolerance +-" +
              std::to_string(kSumTolerance) + "); group rest " +
              std::to_string(per(group_rest, trace.groups) * 1e3) + " ms a request" +
              (group_rest < 0.0 ? " (NEGATIVE)" : ""));
  report.Check("trace.serve_user_layers_sum_to_end_to_end",
               trace.users > 0 && std::fabs(user_ratio - 1.0) <= kSumTolerance,
               "user layer sum ratio " + std::to_string(user_ratio));
  report.Check("trace.serve_group_layers_sum_to_end_to_end",
               trace.groups > 0 && std::fabs(group_ratio - 1.0) <= kSumTolerance,
               "group layer sum ratio " + std::to_string(group_ratio));
}

}  // namespace

std::unique_ptr<Phase> MakeServePhase(const Args& args, bool primary, Report& report) {
  return std::make_unique<ServePhase>(args, primary, report);
}

}  // namespace perfbench
