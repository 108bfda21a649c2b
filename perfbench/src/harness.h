#ifndef FAIRREC_PERFBENCH_HARNESS_H_
#define FAIRREC_PERFBENCH_HARNESS_H_

// Shared plumbing of the perfbench binary: command line, the generated corpus,
// timing and percentile helpers, output checks, failure accounting, and the
// report whose last line is the one JSON object the benchmark contract asks
// for.

#include <time.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ratings/rating_matrix.h"

namespace perfbench {

enum class Scale { kFull, kTiny };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Directory for durable, spill and artifact state (created and removed
  /// by the caller of the binary).
  std::string state_dir;
  /// Revision of the measured tree, passed in by run.py ("unknown" outside
  /// a git checkout).
  std::string git_sha = "unknown";
};

/// Threads of the engine sweep and of the dist worker slots in the build
/// phase: min(2, cores). Everything else runs one thread.
int32_t BuildThreads();

/// Parses the command line; prints usage and returns false on a bad flag.
bool ParseArgs(int argc, char** argv, Args* args);

/// Shape of one generated corpus: the clustered rating generator of
/// data/rating_generator.h over a generated document corpus, so Def. 1 sees
/// real peer structure.
struct CorpusShape {
  int32_t users = 0;
  int32_t items = 0;
  double density = 0.01;
  int32_t topics = 8;
};

fairrec::RatingMatrix GenerateCorpus(const CorpusShape& shape, uint64_t seed);

/// Seconds on the process CPU clock (every thread); differences of two calls
/// time a span. The benchmark times the program's own work: on an idle
/// machine this equals the wall time of a single-threaded span, while time
/// the hypervisor steals from the virtual CPUs (the guest kernel accounts it
/// apart) and time blocked on the disk are left out. See README.md.
inline double CpuNow() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

/// Seconds on the steady (wall) clock, for the build paths that run
/// BuildThreads() threads: their time includes parallel scaling and waits,
/// which a CPU clock would leave out. See README.md.
inline double WallNow() {
  timespec now{};
  clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

/// The calling thread's CPU clock, for spans timed on a worker thread.
inline double ThreadCpuNow() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Latency charged to a failed request: it misses every percentile.
inline constexpr double kFailedMs = 1e9;

/// A timed phase is split into blocks of equal, fixed work. Contention from
/// other tenants of the machine comes and goes over seconds and only ever
/// slows a block, so throughputs, medians and mean times are taken from the
/// best block. A tail percentile (p95, p99) instead is the median of the
/// blocks' tails: a block's tail is set by a few dozen requests, and one
/// quiet block would decide the minimum. A change that slows the program
/// slows every block.
struct BlockStat {
  double value = 0.0;
  int64_t samples = 0;  // samples behind one block's value
};

/// Lowest per-block percentile; every block is charged `failed` misses.
BlockStat BestPercentile(const std::vector<std::vector<double>>& blocks, double q,
                         int64_t failed);
/// Median of the per-block percentiles, charged likewise.
BlockStat MedianPercentile(const std::vector<std::vector<double>>& blocks, double q,
                           int64_t failed);
/// Lowest (`lower` true) or highest value of per-block figures.
double Best(const std::vector<double>& per_block, bool lower);

/// FNV-1a over bytes, chained through `hash`.
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 0xcbf29ce484222325ull);

/// Process high-water resident set, MiB.
double PeakRssMb();

/// Name of the filesystem type holding `path` ("ext4", "tmpfs", ...).
std::string FilesystemType(const std::string& path);

/// Everything one run reports. Metrics are printed in insertion order; the
/// last stdout line is {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void Env(const std::string& key, const std::string& value);
  void Env(const std::string& key, double value);

  /// An end-to-end or per-layer metric, with the samples it came from
  /// (0 when it is a count or a single derived figure). Reporting one name
  /// twice is a bug in the benchmark and aborts.
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = 0);

  /// Operations of one phase: every attempt counts, every non-OK status is
  /// a failure.
  void Attempt(const std::string& phase, const fairrec::Status& status);
  void Attempts(const std::string& phase, int64_t attempted, int64_t failed);

  /// An output check; any failed check makes the run incorrect. Checks of
  /// one name are merged: the first failure is noted, any failure sticks.
  void Check(const std::string& name, bool ok, const std::string& detail = "");

  /// Free-form line for the human-readable part of the output.
  void Note(const std::string& line);

  int64_t attempted() const;
  int64_t failed() const;
  bool correct() const;

  /// Prints the human-readable report, then the result line.
  void Print() const;

 private:
  struct MetricValue {
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
  };
  struct PhaseCount {
    int64_t attempted = 0;
    int64_t failed = 0;
    std::string first_error;
  };
  std::vector<std::pair<std::string, std::string>> env_;
  std::vector<std::pair<std::string, MetricValue>> metrics_;
  std::map<std::string, PhaseCount> phases_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::string> notes_;
};

/// Records the run environment every workload shares.
void RecordEnvironment(const Args& args, Report& report);

/// One of the three jobs a run executes. Every workload runs all three, so
/// every run reports every end-to-end metric: its own job as the primary
/// phase (full size, work set by the seconds argument, owner of setup_s),
/// the other two as probes (small fixed size). A phase's timed work is split
/// into blocks (see BlockStat), and the run interleaves the phases' blocks
/// so each metric's blocks spread over the whole run.
class Phase {
 public:
  Phase() = default;
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  virtual ~Phase() = default;

  /// Generates the inputs and builds the starting state; non-zero when that
  /// fails (the run then stops without a result).
  virtual int SetUp() = 0;
  virtual int32_t num_blocks() const = 0;
  /// Runs block `block` (0-based, in order); every operation is counted.
  virtual void RunBlock(int32_t block) = 0;
  /// Output checks, then the phase's metrics.
  virtual void Finish() = 0;
};

std::unique_ptr<Phase> MakeServePhase(const Args& args, bool primary, Report& report);
std::unique_ptr<Phase> MakeIngestPhase(const Args& args, bool primary, Report& report);
std::unique_ptr<Phase> MakeBuildPhase(const Args& args, bool primary, Report& report);

}  // namespace perfbench

#endif  // FAIRREC_PERFBENCH_HARNESS_H_
