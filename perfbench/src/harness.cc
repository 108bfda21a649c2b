#include "harness.h"

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/random.h"
#include "data/corpus_generator.h"
#include "data/rating_generator.h"
#include "sim/pearson_finish_batch.h"

namespace perfbench {

using fairrec::RatingMatrix;
using fairrec::Status;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") return false;
      args->scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (flag == "--state-dir") {
      args->state_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty() || args->state_dir.empty() || args->seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve|ingest|build --seed N "
                 "--seconds S --trace 0|1 --state-dir DIR [--scale full|tiny] "
                 "[--git-sha SHA]\n");
    return false;
  }
  return true;
}

int32_t BuildThreads() {
  return static_cast<int32_t>(std::clamp(std::thread::hardware_concurrency(), 1u, 2u));
}

RatingMatrix GenerateCorpus(const CorpusShape& shape, uint64_t seed) {
  fairrec::CorpusConfig corpus_config;
  corpus_config.num_documents = shape.items;
  corpus_config.num_topics = shape.topics;
  corpus_config.seed = seed;
  const fairrec::Corpus corpus =
      std::move(fairrec::GenerateCorpus(corpus_config)).ValueOrDie();
  fairrec::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<int32_t> cluster_of_user(static_cast<size_t>(shape.users));
  for (int32_t& cluster : cluster_of_user) {
    cluster = static_cast<int32_t>(rng.UniformInt(0, shape.topics - 1));
  }
  fairrec::RatingGeneratorConfig rating_config;
  rating_config.density = shape.density;
  rating_config.seed = seed;
  return std::move(fairrec::GenerateRatings(rating_config, cluster_of_user,
                                            corpus))
      .ValueOrDie();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

BlockStat BestPercentile(const std::vector<std::vector<double>>& blocks, double q,
                         int64_t failed) {
  BlockStat best;
  for (const std::vector<double>& block : blocks) {
    std::vector<double> samples = block;
    samples.insert(samples.end(), static_cast<size_t>(failed), kFailedMs);
    const double value = Percentile(samples, q);
    if (best.samples == 0 || value < best.value) {
      best = {value, static_cast<int64_t>(samples.size())};
    }
  }
  return best;
}

BlockStat MedianPercentile(const std::vector<std::vector<double>>& blocks, double q,
                           int64_t failed) {
  std::vector<double> values;
  int64_t samples = 0;
  for (const std::vector<double>& block : blocks) {
    std::vector<double> block_samples = block;
    block_samples.insert(block_samples.end(), static_cast<size_t>(failed), kFailedMs);
    values.push_back(Percentile(block_samples, q));
    samples = static_cast<int64_t>(block_samples.size());
  }
  return {Median(values), samples};
}

double Best(const std::vector<double>& per_block, bool lower) {
  if (per_block.empty()) return 0.0;
  return lower ? *std::min_element(per_block.begin(), per_block.end())
               : *std::max_element(per_block.begin(), per_block.end());
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string FilesystemType(const std::string& path) {
  struct statfs info{};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return hex;
    }
  }
}

void Report::Env(const std::string& key, const std::string& value) {
  env_.emplace_back(key, value);
}

void Report::Env(const std::string& key, double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  env_.emplace_back(key, text);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  for (const auto& [existing, metric] : metrics_) {
    if (existing == name) {
      std::fprintf(stderr, "metric %s reported twice\n", name.c_str());
      std::abort();
    }
  }
  metrics_.emplace_back(name, MetricValue{value, unit, samples});
}

void Report::Attempt(const std::string& phase, const Status& status) {
  PhaseCount& count = phases_[phase];
  ++count.attempted;
  if (!status.ok()) {
    if (count.failed == 0) count.first_error = status.ToString();
    ++count.failed;
  }
}

void Report::Attempts(const std::string& phase, int64_t attempted,
                      int64_t failed) {
  PhaseCount& count = phases_[phase];
  count.attempted += attempted;
  count.failed += failed;
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  auto it = std::find_if(checks_.begin(), checks_.end(),
                         [&name](const auto& check) { return check.first == name; });
  if (it == checks_.end()) it = checks_.insert(checks_.end(), {name, true});
  if (!ok && it->second) notes_.push_back("CHECK FAILED " + name + ": " + detail);
  it->second = it->second && ok;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

int64_t Report::attempted() const {
  int64_t total = 0;
  for (const auto& [phase, count] : phases_) total += count.attempted;
  return total;
}

int64_t Report::failed() const {
  int64_t total = 0;
  for (const auto& [phase, count] : phases_) total += count.failed;
  return total;
}

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const auto& [name, ok] : checks_) {
    if (!ok) return false;
  }
  return true;
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

}  // namespace

void Report::Print() const {
  for (const auto& [key, value] : env_) {
    std::printf("env %-22s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [phase, count] : phases_) {
    std::printf("phase %-20s attempted %lld failed %lld%s%s\n", phase.c_str(),
                static_cast<long long>(count.attempted),
                static_cast<long long>(count.failed),
                count.first_error.empty() ? "" : " first error: ",
                count.first_error.c_str());
  }
  for (const auto& [name, ok] : checks_) {
    std::printf("check %-36s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }
  for (const std::string& line : notes_) std::printf("note %s\n", line.c_str());
  for (const auto& [name, metric] : metrics_) {
    if (metric.samples > 0) {
      std::printf("metric %-28s %14.6f %-10s (n=%lld)\n", name.c_str(),
                  metric.value, metric.unit.c_str(),
                  static_cast<long long>(metric.samples));
    } else {
      std::printf("metric %-28s %14.6f %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted()));
  line += ", \"failed\": " + std::to_string(failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) line += ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void RecordEnvironment(const Args& args, Report& report) {
  report.Env("workload", args.workload);
  report.Env("seed", std::to_string(args.seed));
  report.Env("seconds", args.seconds);
  report.Env("trace", args.trace ? "1" : "0");
  report.Env("scale", args.scale == Scale::kTiny ? "tiny" : "full");
  report.Env("nproc", std::to_string(std::thread::hardware_concurrency()));
  // Thread counts are explicit everywhere: 0 would mean "all cores".
  report.Env("build_threads", std::to_string(BuildThreads()));
  report.Env("engine_threads_serve_ingest", "1");
  report.Env("ooc_threads", "1");
  report.Env("client_threads", "1");
  report.Env("finish_kernel", fairrec::FinishPearsonBatchKernel());
  report.Env("build_type", PERFBENCH_BUILD_TYPE);
  report.Env("git_sha", args.git_sha);
  report.Env("state_dir_fs", FilesystemType(args.state_dir));
}

}  // namespace perfbench
