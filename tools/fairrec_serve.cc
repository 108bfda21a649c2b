// Interactive-scale traffic driver for the online serving layer: builds a
// synthetic corpus, seeds a LivePeerGraph, and drives mixed single-user /
// group-recommendation traffic through a ServingServer while rating deltas
// publish new generations underneath — the end-to-end smoke of the serving
// stack, with a human-readable report (the machine-readable twin with
// latency floors is bench/bench_serving.cc).
//
//   fairrec_serve [--users N] [--items N] [--density F] [--seed N]
//                 [--seconds F] [--clients N] [--workers N] [--queue N]
//                 [--group-fraction F] [--group-size N] [--z N]
//                 [--selector <registry-name>]
//                 [--update-batch F] [--updates N] [--verbose]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/selector_registry.h"
#include "ratings/rating_delta.h"
#include "ratings/rating_matrix.h"
#include "serve/recommendation_service.h"
#include "serve/server.h"
#include "serve/snapshot_source.h"
#include "sim/incremental_peer_graph.h"

namespace fairrec {
namespace {

using serve::GroupRecRequest;
using serve::GroupRecResponse;
using serve::LivePeerGraph;
using serve::RecommendationService;
using serve::ServingServer;
using serve::ServingServerOptions;
using serve::ServingServerStats;
using serve::UserRecRequest;
using serve::UserRecResponse;

struct Config {
  int32_t num_users = 1000;
  int32_t num_items = 300;
  double density = 0.03;
  uint64_t seed = 20170417;
  double seconds = 3.0;
  int32_t clients = 3;
  int32_t workers = 3;
  int32_t max_queue = 128;
  double group_fraction = 0.3;
  int32_t group_size = 4;
  int32_t z = 5;
  std::string selector = "algorithm1";
  double update_batch = 12.0;
  int32_t updates = 10;
  bool verbose = false;
};

RatingMatrix GenerateCorpus(const Config& config) {
  Rng rng(config.seed);
  RatingMatrixBuilder builder;
  builder.Reserve(config.num_users, config.num_items);
  for (UserId u = 0; u < config.num_users; ++u) {
    for (ItemId i = 0; i < config.num_items; ++i) {
      if (!rng.NextBool(config.density)) continue;
      const auto status =
          builder.Add(u, i, static_cast<Rating>(rng.UniformInt(1, 5)));
      if (!status.ok()) {
        std::fprintf(stderr, "corpus generation failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
    }
  }
  return std::move(builder.Build()).ValueOrDie();
}

RatingDelta MakeBatch(const Config& config, Rng& rng) {
  RatingDelta delta;
  const auto size = static_cast<int64_t>(
      std::max(1.0, config.update_batch * (0.5 + rng.NextDouble())));
  for (int64_t k = 0; k < size; ++k) {
    const auto user =
        static_cast<UserId>(rng.UniformInt(0, config.num_users - 1));
    const auto item =
        static_cast<ItemId>(rng.UniformInt(0, config.num_items - 1));
    if (const auto status =
            delta.Add(user, item, static_cast<Rating>(rng.UniformInt(1, 5)));
        !status.ok()) {
      std::fprintf(stderr, "batch generation failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  return delta;
}

struct ClientTally {
  int64_t user_ok = 0;
  int64_t group_ok = 0;
  int64_t shed = 0;
  int64_t out_of_range = 0;
  double latency_ms_sum = 0.0;
  double latency_ms_max = 0.0;
};

int Run(const Config& config) {
  std::printf("corpus: %d users x %d items at %.2f%% density\n",
              config.num_users, config.num_items, 100.0 * config.density);
  const RatingMatrix corpus = GenerateCorpus(config);
  std::printf("  %lld ratings\n",
              static_cast<long long>(corpus.num_ratings()));

  IncrementalPeerGraphOptions graph_options;
  graph_options.peers.delta = 0.1;
  graph_options.peers.max_peers_per_user = 64;
  Stopwatch seed_clock;
  auto graph = IncrementalPeerGraph::Build(corpus, graph_options);
  if (!graph.ok()) {
    std::fprintf(stderr, "seed build failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  std::printf("peer graph seeded in %.3f s\n", seed_clock.ElapsedSeconds());
  LivePeerGraph live(std::move(graph).ValueOrDie());

  serve::RecommendationServiceOptions service_options;
  service_options.recommender.peers.delta = 0.1;
  const RecommendationService service(&live, service_options);
  ServingServerOptions server_options;
  server_options.num_workers = config.workers;
  server_options.max_queue = config.max_queue;
  ServingServer server(&service, server_options);

  std::printf(
      "serving with %d workers (queue %d), %d clients, %.0f%% group traffic "
      "via %s, %d update batches over %.1f s\n",
      config.workers, config.max_queue, config.clients,
      100.0 * config.group_fraction, config.selector.c_str(), config.updates,
      config.seconds);

  std::atomic<bool> stop{false};
  std::vector<ClientTally> tallies(static_cast<size_t>(config.clients));
  std::vector<std::thread> clients;
  Stopwatch run_clock;
  for (int32_t c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(config.seed ^ (0xc0ffeeull + static_cast<uint64_t>(c)));
      ClientTally& mine = tallies[static_cast<size_t>(c)];
      while (!stop.load(std::memory_order_relaxed)) {
        Stopwatch latency;
        if (rng.NextDouble() < config.group_fraction) {
          GroupRecRequest request;
          for (const int32_t u : rng.SampleWithoutReplacement(
                   config.num_users, config.group_size)) {
            request.members.push_back(static_cast<UserId>(u));
          }
          request.z = config.z;
          request.selector = config.selector;
          const auto response = server.CallGroup(request);
          if (response.ok()) {
            ++mine.group_ok;
          } else if (response.status().IsResourceExhausted()) {
            ++mine.shed;
            std::this_thread::yield();
            continue;
          } else if (response.status().IsOutOfRange()) {
            ++mine.out_of_range;
            continue;
          } else {
            std::fprintf(stderr, "group request failed: %s\n",
                         response.status().ToString().c_str());
            std::exit(1);
          }
        } else {
          UserRecRequest request;
          request.user =
              static_cast<UserId>(rng.UniformInt(0, config.num_users - 1));
          const auto response = server.CallUser(request);
          if (response.ok()) {
            ++mine.user_ok;
          } else if (response.status().IsResourceExhausted()) {
            ++mine.shed;
            std::this_thread::yield();
            continue;
          } else {
            std::fprintf(stderr, "user request failed: %s\n",
                         response.status().ToString().c_str());
            std::exit(1);
          }
        }
        const double ms = latency.ElapsedSeconds() * 1e3;
        mine.latency_ms_sum += ms;
        mine.latency_ms_max = std::max(mine.latency_ms_max, ms);
      }
    });
  }

  Rng update_rng(config.seed ^ 0xfeedull);
  const double interval =
      config.updates > 0 ? config.seconds / (config.updates + 1) : 0.0;
  int32_t applied = 0;
  for (int32_t d = 0; d < config.updates; ++d) {
    const double due = interval * (d + 1);
    while (run_clock.ElapsedSeconds() < due &&
           run_clock.ElapsedSeconds() < config.seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (run_clock.ElapsedSeconds() >= config.seconds) break;
    const RatingDelta batch = MakeBatch(config, update_rng);
    const auto stats = live.ApplyDelta(batch);
    if (!stats.ok()) {
      std::fprintf(stderr, "delta apply failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    ++applied;
    if (config.verbose) {
      std::printf(
          "  generation %llu published: %lld upserts, %lld pairs changed%s\n",
          static_cast<unsigned long long>(live.generation()),
          static_cast<long long>(stats->num_upserts),
          static_cast<long long>(stats->changed_pairs),
          stats->used_full_rebuild ? " (full rebuild)" : "");
    }
  }
  while (run_clock.ElapsedSeconds() < config.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  const double elapsed = run_clock.ElapsedSeconds();
  server.Shutdown();

  ClientTally total;
  for (const ClientTally& tally : tallies) {
    total.user_ok += tally.user_ok;
    total.group_ok += tally.group_ok;
    total.shed += tally.shed;
    total.out_of_range += tally.out_of_range;
    total.latency_ms_sum += tally.latency_ms_sum;
    total.latency_ms_max = std::max(total.latency_ms_max, tally.latency_ms_max);
  }
  const int64_t completed = total.user_ok + total.group_ok;
  const ServingServerStats stats = server.stats();
  std::printf("\n%.2f s of traffic against generations 1..%llu:\n", elapsed,
              static_cast<unsigned long long>(live.generation()));
  std::printf("  %lld completed (%lld user, %lld group) = %.0f QPS\n",
              static_cast<long long>(completed),
              static_cast<long long>(total.user_ok),
              static_cast<long long>(total.group_ok),
              elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0);
  std::printf("  mean latency %.2f ms, max %.2f ms\n",
              completed > 0
                  ? total.latency_ms_sum / static_cast<double>(completed)
                  : 0.0,
              total.latency_ms_max);
  std::printf("  %lld shed, %lld out-of-range, queue peak %llu\n",
              static_cast<long long>(total.shed),
              static_cast<long long>(total.out_of_range),
              static_cast<unsigned long long>(stats.queue_peak));
  std::printf("  %d delta batches published while serving\n", applied);
  return 0;
}

}  // namespace
}  // namespace fairrec

int main(int argc, char** argv) {
  fairrec::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    // Strict numeric values: a malformed or out-of-range one is a usage
    // error, never a silent 0.
    const auto parsed = [&](auto result) {
      if (!result.ok()) {
        std::fprintf(stderr, "invalid value for %s: %s\n", arg.c_str(),
                     std::string(result.status().message()).c_str());
        std::exit(1);
      }
      return *result;
    };
    const auto next_int = [&] {
      return parsed(fairrec::ParseInt<int32_t>(next()));
    };
    const auto next_double = [&] {
      return parsed(fairrec::ParseDouble(next()));
    };
    if (arg == "--users") {
      config.num_users = next_int();
    } else if (arg == "--items") {
      config.num_items = next_int();
    } else if (arg == "--density") {
      config.density = next_double();
    } else if (arg == "--seed") {
      config.seed = parsed(fairrec::ParseInt<uint64_t>(next()));
    } else if (arg == "--seconds") {
      config.seconds = next_double();
    } else if (arg == "--clients") {
      config.clients = next_int();
    } else if (arg == "--workers") {
      config.workers = next_int();
    } else if (arg == "--queue") {
      config.max_queue = next_int();
    } else if (arg == "--group-fraction") {
      config.group_fraction = next_double();
    } else if (arg == "--group-size") {
      config.group_size = next_int();
    } else if (arg == "--z") {
      config.z = next_int();
    } else if (arg == "--selector") {
      config.selector = next();
      if (!fairrec::SelectorRegistry::Global().Has(config.selector)) {
        std::fprintf(stderr, "unknown selector: %s\n", config.selector.c_str());
        return 1;
      }
    } else if (arg == "--update-batch") {
      config.update_batch = next_double();
    } else if (arg == "--updates") {
      config.updates = next_int();
    } else if (arg == "--verbose") {
      config.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }
  if (config.num_users < 2 || config.num_items < 1 || config.density <= 0.0 ||
      config.density > 1.0 || config.seconds <= 0.0 || config.clients < 1 ||
      config.workers < 1 || config.max_queue < 1 ||
      config.group_fraction < 0.0 || config.group_fraction > 1.0 ||
      config.group_size < 1 || config.group_size > config.num_users ||
      config.z < 1 || config.updates < 0 || config.update_batch <= 0.0) {
    std::fprintf(stderr, "invalid configuration\n");
    return 1;
  }
  return fairrec::Run(config);
}
