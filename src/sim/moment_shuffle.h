#ifndef FAIRREC_SIM_MOMENT_SHUFFLE_H_
#define FAIRREC_SIM_MOMENT_SHUFFLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ratings/types.h"
#include "sim/pearson_finish.h"

namespace fairrec {

/// Controls for PairMomentShuffle.
struct MomentShuffleOptions {
  /// Upper bound on the in-memory record buffer. When an Add would exceed
  /// it, the buffer is sorted and spilled as one run file; 0 keeps
  /// everything in memory (the classic single-buffer shuffle — no temp
  /// files, no I/O).
  size_t max_buffer_bytes = 0;
  /// Directory for spilled run files (created if missing). Required when
  /// max_buffer_bytes > 0.
  std::string temp_dir;
};

/// Accounting of one shuffle's lifetime.
struct MomentShuffleStats {
  /// Records offered to Add.
  int64_t records_in = 0;
  /// Distinct (a, b, shard) groups Drain delivered.
  int64_t groups_out = 0;
  /// Run files written (0 = the whole shuffle fit in the buffer).
  int64_t runs_spilled = 0;
  /// Framed bytes written across all runs.
  uint64_t spilled_bytes = 0;
  /// High-water of the in-memory record buffer.
  size_t peak_buffer_bytes = 0;
};

/// Memory-bounded external-sort shuffle over (user pair, item shard, item)
/// keyed PairMoments records — the spilling counterpart of the in-memory
/// "collect, sort, fold consecutive groups" pattern of the MapReduce Job 1
/// boundary (the paper's Fig. 2 flow).
///
/// Records accumulate in a bounded buffer; when it fills, the buffer is
/// sorted by the total key (a, b, shard, item) and written to a CRC-framed
/// run file (common/run_file.h). Drain k-way-merges the runs: because every
/// record's key is unique (a pair co-rates an item at most once), the merge
/// reproduces the exact global sort order of the unspilled path, so folding
/// consecutive equal-(a, b, shard) records yields bit-identical group
/// moments at every budget — the property that keeps the spilled MapReduce
/// pipeline byte-identical to the in-memory one.
///
/// Not thread-safe: callers emitting from concurrent reducers serialize
/// Add externally (the output is order-independent — the sort owns the
/// order, so interleaving never reaches the artifact).
class PairMomentShuffle {
 public:
  /// One shuffle record: the canonical sort key plus the moments payload.
  struct Record {
    UserId a = kInvalidUserId;
    UserId b = kInvalidUserId;
    int32_t shard = 0;
    ItemId item = kInvalidItemId;
    PairMoments moments;
  };

  static Result<PairMomentShuffle> Create(MomentShuffleOptions options);

  PairMomentShuffle(PairMomentShuffle&&) noexcept = default;
  PairMomentShuffle& operator=(PairMomentShuffle&&) noexcept = default;
  /// Removes any run files still on disk.
  ~PairMomentShuffle();

  /// Buffers one record, spilling a sorted run first when the buffer is at
  /// its budget. IOError when a spill write fails.
  Status Add(UserId a, UserId b, int32_t shard, ItemId item,
             const PairMoments& moments);

  /// Delivered once per distinct (a, b, shard) group, in ascending key
  /// order, with the group's moments folded in ascending item order (first
  /// record copied, later records Merged — the in-memory combine's exact
  /// association). A non-OK return aborts the drain and propagates.
  using GroupConsumer = std::function<Status(
      UserId a, UserId b, int32_t shard, const PairMoments& total)>;

  /// Sorts/merges everything Added and streams the folded groups. One-shot:
  /// the shuffle is spent afterwards (buffer released, runs deleted).
  Status Drain(const GroupConsumer& consume);

  const MomentShuffleStats& stats() const { return stats_; }
  const MomentShuffleOptions& options() const { return options_; }

 private:
  explicit PairMomentShuffle(MomentShuffleOptions options, uint64_t sequence)
      : options_(std::move(options)), sequence_(sequence) {}

  /// Sorts the buffer, writes it as one run file, and
  /// clears the buffer (capacity retained — it is the budget).
  Status SpillRun();
  std::string RunPath(size_t run_index) const;
  void RemoveRuns();

  MomentShuffleOptions options_;
  /// Process-unique shuffle id, so shuffles sharing a temp_dir never
  /// collide on run file names.
  uint64_t sequence_ = 0;
  std::vector<Record> buffer_;
  std::vector<std::string> runs_;
  MomentShuffleStats stats_;
  bool drained_ = false;
};

}  // namespace fairrec

#endif  // FAIRREC_SIM_MOMENT_SHUFFLE_H_
