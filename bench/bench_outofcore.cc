// Memory-budgeted out-of-core peer-graph build: prove that a corpus whose
// sufficient-statistics store exceeds the configured byte budget still
// builds — tiles spilling to checksummed blobs as the residency manager
// demands — and that the budget buys no accuracy: the assembled store and
// the finished PeerIndex are byte-identical to the unbounded in-memory
// engine. Two phases:
//
//   * cross-check (default 100k users) — the unbounded
//     PairwiseSimilarityEngine build is the reference; the budgeted
//     BuildMomentStoreOutOfCore + BuildPeerIndexFromStore run under a
//     budget a fraction of the store's real size. Parity is asserted
//     directly (store and index operator==) and the wall-time slowdown of
//     paying for disk is reported.
//   * big (default 1M users x 250k items, degree 5, 2 GiB budget — the
//     "laptop budget" shape) — no in-memory reference is built (that is
//     the point); the gates are peak resident bytes <= budget and a
//     deterministic index fingerprint for cross-run comparison.
//
//   bench_outofcore [--cross-users N] [--cross-items N] [--cross-degree N]
//                   [--cross-budget-mb N] [--big-users N] [--big-items N]
//                   [--big-degree N] [--big-budget-mb N] [--tile-users N]
//                   [--seed N] [--threads N] [--spill-dir DIR] [--skip-big]
//                   [--check-parity] [--check-peak-resident-max N]
//                   [--out BENCH_outofcore.json]
//
// --check-parity fails (exit 2) unless the cross-check store and index both
// match the engine bit-for-bit; --check-peak-resident-max N fails (exit 3)
// when any budgeted phase's peak resident bytes exceed N. Exit status: 0 ok,
// 1 argument/IO errors, 2 parity mismatch, 3 a --check-* gate failed.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/blob_io.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "ratings/rating_matrix.h"
#include "sim/moment_store.h"
#include "sim/pairwise_engine.h"
#include "sim/peer_index.h"
#include "sim/tile_residency.h"

namespace fairrec {
namespace {

struct BenchConfig {
  // Cross-check shape: small enough that the unbounded engine reference is
  // cheap, dense enough that the budget actually forces spilling.
  int32_t cross_users = 100000;
  int32_t cross_items = 25000;
  int32_t cross_degree = 8;
  size_t cross_budget_mb = 256;
  // The laptop-budget shape.
  int32_t big_users = 1000000;
  int32_t big_items = 250000;
  int32_t big_degree = 5;
  size_t big_budget_mb = 2048;
  int32_t tile_users = 2048;
  uint64_t seed = 20170417;
  size_t threads = 1;
  std::string spill_dir = "bench_outofcore_spill";
  bool skip_big = false;
  bool check_parity = false;
  /// Fail (exit 3) when any budgeted phase's peak resident bytes exceed
  /// this (0 = no gate).
  size_t check_peak_resident_max = 0;
  std::string out_path = "BENCH_outofcore.json";
};

/// Fixed-degree corpus: every user rates `degree` distinct items sampled
/// uniformly from the universe. Rejection sampling, not the O(items)
/// partial-Fisher-Yates of Rng::SampleWithoutReplacement — at a million
/// users the pool allocation would dominate the corpus, while degree <<
/// items makes collisions vanishingly rare.
RatingMatrix GenerateCorpus(int32_t num_users, int32_t num_items,
                            int32_t degree, uint64_t seed) {
  Rng rng(seed);
  RatingMatrixBuilder builder;
  builder.Reserve(num_users, num_items);
  std::vector<ItemId> picked;
  picked.reserve(static_cast<size_t>(degree));
  for (UserId u = 0; u < num_users; ++u) {
    picked.clear();
    while (picked.size() < static_cast<size_t>(degree)) {
      const auto item = static_cast<ItemId>(rng.UniformInt(0, num_items - 1));
      if (std::find(picked.begin(), picked.end(), item) != picked.end()) {
        continue;
      }
      picked.push_back(item);
      const auto status =
          builder.Add(u, item, static_cast<Rating>(rng.UniformInt(1, 5)));
      if (!status.ok()) {
        std::fprintf(stderr, "corpus generation failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
    }
  }
  return std::move(builder.Build()).ValueOrDie();
}

/// Deterministic FNV-1a fingerprint of a PeerIndex — the cross-run identity
/// of the big phase, where no in-memory reference exists to operator==
/// against.
uint64_t FingerprintIndex(const PeerIndex& index) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(index.num_users()));
  for (UserId u = 0; u < index.num_users(); ++u) {
    for (const Peer& p : index.PeersOf(u)) {
      mix(static_cast<uint64_t>(u));
      mix(static_cast<uint64_t>(p.user));
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(p.similarity));
      std::memcpy(&bits, &p.similarity, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

struct PhaseResult {
  double corpus_seconds = 0.0;
  double build_seconds = 0.0;
  double finish_seconds = 0.0;
  size_t budget_bytes = 0;
  size_t store_bytes = 0;
  int64_t store_pairs = 0;
  int64_t index_entries = 0;
  uint64_t index_fingerprint = 0;
  TileResidencyStats residency;
  PairwiseEngineStats sweep_stats;
};

/// Budgeted corpus -> store -> index, shared by both phases.
int RunBudgetedBuild(const RatingMatrix& matrix, const BenchConfig& config,
                     size_t budget_bytes, const std::string& spill_dir,
                     PhaseResult& r, OutOfCoreStore* keep_store) {
  OutOfCoreBuildOptions build_options;
  build_options.store.tile_users = config.tile_users;
  build_options.budget_bytes = budget_bytes;
  build_options.spill_dir = spill_dir;
  r.budget_bytes = budget_bytes;

  Stopwatch build_clock;
  auto store = BuildMomentStoreOutOfCore(matrix, build_options);
  r.build_seconds = build_clock.ElapsedSeconds();
  if (!store.ok()) {
    std::fprintf(stderr, "out-of-core build failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }

  RatingSimilarityOptions sim_options;
  PeerIndexOptions peer_options;
  peer_options.delta = 0.1;
  peer_options.max_peers_per_user = 64;
  Stopwatch finish_clock;
  auto index =
      BuildPeerIndexFromStore(matrix, *store->store, store->residency.get(),
                              sim_options, peer_options, &r.sweep_stats);
  r.finish_seconds = finish_clock.ElapsedSeconds();
  if (!index.ok()) {
    std::fprintf(stderr, "store-backed peer sweep failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  if (store->residency != nullptr) {
    r.residency = store->residency->stats();
  }
  r.store_pairs = store->store->num_pairs();
  r.index_entries = index->num_entries();
  r.index_fingerprint = FingerprintIndex(*index);
  if (keep_store != nullptr) *keep_store = std::move(*store);
  return 0;
}

void PrintResidency(const char* label, const PhaseResult& r) {
  std::printf(
      "%s: build %7.2f s  finish %7.2f s  "
      "peak resident %7.1f MiB / budget %7.1f MiB  "
      "(%lld spill writes, %lld restores, %.1f MiB spilled)\n",
      label, r.build_seconds, r.finish_seconds,
      static_cast<double>(r.residency.peak_resident_bytes) / (1024.0 * 1024.0),
      static_cast<double>(r.budget_bytes) / (1024.0 * 1024.0),
      static_cast<long long>(r.residency.spill_writes),
      static_cast<long long>(r.residency.restores),
      static_cast<double>(r.residency.spill_bytes_written) /
          (1024.0 * 1024.0));
}

void WriteResidencyJson(std::FILE* out, const TileResidencyStats& s,
                        const char* indent) {
  std::fprintf(out,
               "%s\"residency\": {\n"
               "%s  \"restores\": %lld,\n"
               "%s  \"spill_writes\": %lld,\n"
               "%s  \"evictions\": %lld,\n"
               "%s  \"spill_bytes_written\": %llu,\n"
               "%s  \"restore_bytes_read\": %llu,\n"
               "%s  \"peak_resident_bytes\": %zu\n"
               "%s},\n",
               indent, indent, static_cast<long long>(s.restores), indent,
               static_cast<long long>(s.spill_writes), indent,
               static_cast<long long>(s.evictions), indent,
               static_cast<unsigned long long>(s.spill_bytes_written), indent,
               static_cast<unsigned long long>(s.restore_bytes_read), indent,
               s.peak_resident_bytes, indent);
}

int Run(const BenchConfig& config) {
  if (!EnsureDirectory(config.spill_dir).ok()) {
    std::fprintf(stderr, "cannot create spill dir %s\n",
                 config.spill_dir.c_str());
    return 1;
  }

  // ---- Phase 1: cross-check against the unbounded engine. ----
  std::printf("cross-check corpus: %d users x %d items, degree %d...\n",
              config.cross_users, config.cross_items, config.cross_degree);
  Stopwatch corpus_clock;
  const RatingMatrix cross = GenerateCorpus(
      config.cross_users, config.cross_items, config.cross_degree,
      config.seed);
  const double cross_corpus_seconds = corpus_clock.ElapsedSeconds();

  PairwiseEngineOptions engine_options;
  engine_options.num_threads = config.threads;
  RatingSimilarityOptions sim_options;
  PeerIndexOptions peer_options;
  peer_options.delta = 0.1;
  peer_options.max_peers_per_user = 64;
  const PairwiseSimilarityEngine engine(&cross, sim_options, engine_options);

  Stopwatch engine_clock;
  MomentStoreOptions store_options;
  store_options.tile_users = config.tile_users;
  auto reference_store = engine.BuildMomentStore(store_options);
  const double engine_store_seconds = engine_clock.ElapsedSeconds();
  if (!reference_store.ok()) {
    std::fprintf(stderr, "engine store build failed: %s\n",
                 reference_store.status().ToString().c_str());
    return 1;
  }
  Stopwatch engine_index_clock;
  auto reference_index = engine.BuildPeerIndex(peer_options);
  const double engine_index_seconds = engine_index_clock.ElapsedSeconds();
  if (!reference_index.ok()) {
    std::fprintf(stderr, "engine index build failed: %s\n",
                 reference_index.status().ToString().c_str());
    return 1;
  }
  const size_t unbounded_bytes = reference_store->ResidentBytes();
  std::printf(
      "unbounded engine: store %.1f MiB in %.2f s, index %lld entries in "
      "%.2f s\n",
      static_cast<double>(unbounded_bytes) / (1024.0 * 1024.0),
      engine_store_seconds,
      static_cast<long long>(reference_index->num_entries()),
      engine_index_seconds);

  PhaseResult cross_result;
  cross_result.corpus_seconds = cross_corpus_seconds;
  cross_result.store_bytes = unbounded_bytes;
  OutOfCoreStore cross_store;
  if (const int rc = RunBudgetedBuild(cross, config,
                                      config.cross_budget_mb << 20,
                                      config.spill_dir + "/cross",
                                      cross_result, &cross_store);
      rc != 0) {
    return rc;
  }
  PrintResidency("budgeted 100k-shape", cross_result);

  // Parity: restore everything (comparison walks every tile) and compare
  // bit-for-bit against the unbounded engine's artifacts.
  bool store_parity = false;
  bool index_parity = false;
  if (cross_store.residency != nullptr) {
    const Status restored = cross_store.residency->RestoreAll();
    if (!restored.ok()) {
      std::fprintf(stderr, "restore-all failed: %s\n",
                   restored.ToString().c_str());
      return 1;
    }
  }
  store_parity = *cross_store.store == *reference_store;
  index_parity =
      cross_result.index_fingerprint == FingerprintIndex(*reference_index);
  const double unbounded_seconds = engine_store_seconds + engine_index_seconds;
  const double budgeted_seconds =
      cross_result.build_seconds + cross_result.finish_seconds;
  std::printf(
      "parity: store %s, index %s; budgeted/unbounded wall %.2fx "
      "(%.2f s vs %.2f s)\n",
      store_parity ? "ok" : "MISMATCH", index_parity ? "ok" : "MISMATCH",
      budgeted_seconds / unbounded_seconds, budgeted_seconds,
      unbounded_seconds);
  // Free the cross-check stores before the big phase claims its budget.
  cross_store = OutOfCoreStore{};
  reference_store = Result<MomentStore>(Status::NotFound("released"));

  // ---- Phase 2: the laptop-budget shape. ----
  PhaseResult big_result;
  if (!config.skip_big) {
    std::printf("big corpus: %d users x %d items, degree %d...\n",
                config.big_users, config.big_items, config.big_degree);
    Stopwatch big_corpus_clock;
    const RatingMatrix big = GenerateCorpus(config.big_users, config.big_items,
                                            config.big_degree,
                                            config.seed ^ 0xb16b16ull);
    big_result.corpus_seconds = big_corpus_clock.ElapsedSeconds();
    if (const int rc = RunBudgetedBuild(big, config,
                                        config.big_budget_mb << 20,
                                        config.spill_dir + "/big", big_result,
                                        nullptr);
        rc != 0) {
      return rc;
    }
    big_result.store_bytes =
        big_result.residency.peak_resident_bytes +
        big_result.residency.spilled_blob_bytes;
    PrintResidency("budgeted 1M-shape  ", big_result);
    std::printf("big index fingerprint 0x%016llx (%lld entries)\n",
                static_cast<unsigned long long>(big_result.index_fingerprint),
                static_cast<long long>(big_result.index_entries));
  }

  std::FILE* out = std::fopen(config.out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"outofcore\",\n"
               "  \"seed\": %llu,\n"
               "  \"threads\": %zu,\n"
               "  \"tile_users\": %d,\n"
               "  \"cross_check\": {\n"
               "    \"num_users\": %d,\n"
               "    \"num_items\": %d,\n"
               "    \"degree\": %d,\n"
               "    \"budget_bytes\": %zu,\n"
               "    \"unbounded_store_bytes\": %zu,\n"
               "    \"engine_store_seconds\": %.6f,\n"
               "    \"engine_index_seconds\": %.6f,\n"
               "    \"build_seconds\": %.6f,\n"
               "    \"sweep_seconds\": %.6f,\n",
               static_cast<unsigned long long>(config.seed), config.threads,
               config.tile_users, config.cross_users, config.cross_items,
               config.cross_degree, cross_result.budget_bytes, unbounded_bytes,
               engine_store_seconds, engine_index_seconds,
               cross_result.build_seconds, cross_result.finish_seconds);
  WriteResidencyJson(out, cross_result.residency, "    ");
  std::fprintf(out,
               "    \"store_pairs\": %lld,\n"
               "    \"index_entries\": %lld,\n"
               "    \"index_fingerprint\": \"0x%016llx\",\n"
               "    \"store_parity_ok\": %s,\n"
               "    \"index_parity_ok\": %s,\n"
               "    \"budgeted_over_unbounded_wall\": %.4f\n"
               "  }",
               static_cast<long long>(cross_result.store_pairs),
               static_cast<long long>(cross_result.index_entries),
               static_cast<unsigned long long>(cross_result.index_fingerprint),
               store_parity ? "true" : "false",
               index_parity ? "true" : "false",
               budgeted_seconds / unbounded_seconds);
  if (config.skip_big) {
    std::fprintf(out, ",\n  \"big\": null\n}\n");
  } else {
    std::fprintf(out,
                 ",\n"
                 "  \"big\": {\n"
                 "    \"num_users\": %d,\n"
                 "    \"num_items\": %d,\n"
                 "    \"degree\": %d,\n"
                 "    \"budget_bytes\": %zu,\n"
                 "    \"corpus_seconds\": %.6f,\n"
                 "    \"build_seconds\": %.6f,\n"
                 "    \"sweep_seconds\": %.6f,\n",
                 config.big_users, config.big_items, config.big_degree,
                 big_result.budget_bytes, big_result.corpus_seconds,
                 big_result.build_seconds, big_result.finish_seconds);
    WriteResidencyJson(out, big_result.residency, "    ");
    std::fprintf(out,
                 "    \"store_pairs\": %lld,\n"
                 "    \"index_entries\": %lld,\n"
                 "    \"index_fingerprint\": \"0x%016llx\",\n"
                 "    \"peak_within_budget\": %s\n"
                 "  }\n}\n",
                 static_cast<long long>(big_result.store_pairs),
                 static_cast<long long>(big_result.index_entries),
                 static_cast<unsigned long long>(big_result.index_fingerprint),
                 big_result.residency.peak_resident_bytes <=
                         big_result.budget_bytes
                     ? "true"
                     : "false");
  }
  std::fclose(out);
  std::printf("wrote %s\n", config.out_path.c_str());

  if (config.check_parity && !(store_parity && index_parity)) {
    std::fprintf(stderr,
                 "FAIL: budgeted build disagrees with the unbounded engine "
                 "(store %s, index %s)\n",
                 store_parity ? "ok" : "mismatch",
                 index_parity ? "ok" : "mismatch");
    return 2;
  }
  if (config.check_peak_resident_max > 0) {
    size_t worst = cross_result.residency.peak_resident_bytes;
    if (!config.skip_big) {
      worst = std::max(worst, big_result.residency.peak_resident_bytes);
    }
    if (worst > config.check_peak_resident_max) {
      std::fprintf(stderr,
                   "FAIL: peak resident %zu bytes above the gate %zu bytes\n",
                   worst, config.check_peak_resident_max);
      return 3;
    }
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
    if (arg == "--cross-users") {
      config.cross_users = std::atoi(next());
    } else if (arg == "--cross-items") {
      config.cross_items = std::atoi(next());
    } else if (arg == "--cross-degree") {
      config.cross_degree = std::atoi(next());
    } else if (arg == "--cross-budget-mb") {
      config.cross_budget_mb = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--big-users") {
      config.big_users = std::atoi(next());
    } else if (arg == "--big-items") {
      config.big_items = std::atoi(next());
    } else if (arg == "--big-degree") {
      config.big_degree = std::atoi(next());
    } else if (arg == "--big-budget-mb") {
      config.big_budget_mb = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--tile-users") {
      config.tile_users = std::atoi(next());
    } else if (arg == "--seed") {
      config.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--threads") {
      config.threads = static_cast<size_t>(std::atoi(next()));
    } else if (arg == "--spill-dir") {
      config.spill_dir = next();
    } else if (arg == "--skip-big") {
      config.skip_big = true;
    } else if (arg == "--check-parity") {
      config.check_parity = true;
    } else if (arg == "--check-peak-resident-max") {
      config.check_peak_resident_max = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--out") {
      config.out_path = next();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }
  if (config.cross_users < 2 || config.cross_items < 1 ||
      config.cross_degree < 1 || config.cross_degree > config.cross_items ||
      config.cross_budget_mb == 0 || config.tile_users < 1 ||
      (!config.skip_big &&
       (config.big_users < 2 || config.big_items < 1 ||
        config.big_degree < 1 || config.big_degree > config.big_items ||
        config.big_budget_mb == 0))) {
    std::fprintf(stderr, "invalid configuration\n");
    return 1;
  }
  return fairrec::Run(config);
}
