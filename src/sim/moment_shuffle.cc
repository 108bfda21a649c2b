#include "sim/moment_shuffle.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <queue>
#include <utility>

#include "common/blob_io.h"
#include "common/logging.h"
#include "common/run_file.h"

namespace fairrec {

namespace {

/// Wire footprint of one record: a, b, shard, item, n as i32 + five sums as
/// f64. Written field-by-field so struct padding never reaches the runs.
constexpr size_t kRecordWireBytes = sizeof(int32_t) * 5 + sizeof(double) * 5;

/// Records per framed run chunk (~3.7 MiB): big enough to amortize the CRC
/// and fread costs, small enough that a k-way merge holds k modest chunk
/// buffers, not k whole runs.
constexpr size_t kChunkRecords = 64 * 1024;

std::atomic<uint64_t> g_shuffle_sequence{0};

/// The total order of the shuffle: (a, b, shard, item). Keys are unique
/// (a pair co-rates an item at most once), so this order is deterministic
/// regardless of Add interleaving or run boundaries.
bool RecordLess(const PairMomentShuffle::Record& x,
                const PairMomentShuffle::Record& y) {
  if (x.a != y.a) return x.a < y.a;
  if (x.b != y.b) return x.b < y.b;
  if (x.shard != y.shard) return x.shard < y.shard;
  return x.item < y.item;
}

void EncodeRecord(const PairMomentShuffle::Record& r, std::string& out) {
  const auto append = [&out](const void* data, size_t bytes) {
    out.append(static_cast<const char*>(data), bytes);
  };
  append(&r.a, sizeof(r.a));
  append(&r.b, sizeof(r.b));
  append(&r.shard, sizeof(r.shard));
  append(&r.item, sizeof(r.item));
  append(&r.moments.n, sizeof(r.moments.n));
  append(&r.moments.sum_a, sizeof(double));
  append(&r.moments.sum_b, sizeof(double));
  append(&r.moments.sum_aa, sizeof(double));
  append(&r.moments.sum_bb, sizeof(double));
  append(&r.moments.sum_ab, sizeof(double));
}

void DecodeRecord(const char* in, PairMomentShuffle::Record& r) {
  const auto read = [&in](void* data, size_t bytes) {
    std::memcpy(data, in, bytes);
    in += bytes;
  };
  read(&r.a, sizeof(r.a));
  read(&r.b, sizeof(r.b));
  read(&r.shard, sizeof(r.shard));
  read(&r.item, sizeof(r.item));
  read(&r.moments.n, sizeof(r.moments.n));
  read(&r.moments.sum_a, sizeof(double));
  read(&r.moments.sum_b, sizeof(double));
  read(&r.moments.sum_aa, sizeof(double));
  read(&r.moments.sum_bb, sizeof(double));
  read(&r.moments.sum_ab, sizeof(double));
}

/// One run's merge cursor: the current record plus a chunk buffer refilled
/// from the run file as it empties.
struct RunCursor {
  RunFileReader reader;
  std::string chunk;
  size_t offset = 0;
  PairMomentShuffle::Record current;
  bool exhausted = false;

  explicit RunCursor(RunFileReader r) : reader(std::move(r)) {}

  Status Advance() {
    if (offset == chunk.size()) {
      bool eof = false;
      FAIRREC_RETURN_NOT_OK(reader.NextChunk(&chunk, &eof));
      offset = 0;
      if (eof || chunk.empty()) {
        exhausted = true;
        return Status::OK();
      }
      if (chunk.size() % kRecordWireBytes != 0) {
        return Status::DataLoss("run chunk is not a whole number of records: " +
                                reader.path());
      }
    }
    DecodeRecord(chunk.data() + offset, current);
    offset += kRecordWireBytes;
    return Status::OK();
  }
};

}  // namespace

Result<PairMomentShuffle> PairMomentShuffle::Create(
    MomentShuffleOptions options) {
  if (options.max_buffer_bytes > 0) {
    if (options.temp_dir.empty()) {
      return Status::InvalidArgument(
          "a bounded shuffle needs a temp_dir to spill runs into");
    }
    FAIRREC_RETURN_NOT_OK(EnsureDirectory(options.temp_dir));
    if (options.max_buffer_bytes < sizeof(Record)) {
      return Status::InvalidArgument(
          "max_buffer_bytes below one record; no buffer can hold that");
    }
  }
  return PairMomentShuffle(
      std::move(options),
      g_shuffle_sequence.fetch_add(1, std::memory_order_relaxed));
}

PairMomentShuffle::~PairMomentShuffle() { RemoveRuns(); }

std::string PairMomentShuffle::RunPath(size_t run_index) const {
  return options_.temp_dir + "/shuffle_" + std::to_string(sequence_) +
         "_run_" + std::to_string(run_index) + ".spill";
}

void PairMomentShuffle::RemoveRuns() {
  for (const std::string& path : runs_) {
    RemovePath(path).ok();  // best-effort temp cleanup
  }
  runs_.clear();
}

Status PairMomentShuffle::Add(UserId a, UserId b, int32_t shard, ItemId item,
                              const PairMoments& moments) {
  FAIRREC_DCHECK(!drained_);
  if (options_.max_buffer_bytes > 0 &&
      (buffer_.size() + 1) * sizeof(Record) > options_.max_buffer_bytes &&
      !buffer_.empty()) {
    FAIRREC_RETURN_NOT_OK(SpillRun());
  }
  buffer_.push_back({a, b, shard, item, moments});
  ++stats_.records_in;
  stats_.peak_buffer_bytes =
      std::max(stats_.peak_buffer_bytes, buffer_.size() * sizeof(Record));
  return Status::OK();
}

Status PairMomentShuffle::SpillRun() {
  std::sort(buffer_.begin(), buffer_.end(), RecordLess);

  const std::string path = RunPath(runs_.size());
  FAIRREC_ASSIGN_OR_RETURN(RunFileWriter writer, RunFileWriter::Create(path));
  // Track the file before writing: a failed write must still be cleaned up.
  runs_.push_back(path);
  std::string chunk;
  chunk.reserve(std::min(buffer_.size(), kChunkRecords) * kRecordWireBytes);
  for (size_t i = 0; i < buffer_.size(); ++i) {
    EncodeRecord(buffer_[i], chunk);
    if (chunk.size() >= kChunkRecords * kRecordWireBytes) {
      FAIRREC_RETURN_NOT_OK(writer.AppendChunk(chunk));
      chunk.clear();
    }
  }
  if (!chunk.empty()) {
    FAIRREC_RETURN_NOT_OK(writer.AppendChunk(chunk));
  }
  FAIRREC_RETURN_NOT_OK(writer.Close());
  stats_.spilled_bytes += writer.bytes_written();
  ++stats_.runs_spilled;
  buffer_.clear();
  return Status::OK();
}

Status PairMomentShuffle::Drain(const GroupConsumer& consume) {
  FAIRREC_CHECK(!drained_);
  drained_ = true;

  // Everything fit in the buffer: the classic in-memory path — one sort,
  // one consecutive-group fold. The spilled path below reproduces this
  // order and association exactly.
  if (runs_.empty()) {
    std::sort(buffer_.begin(), buffer_.end(), RecordLess);
    for (size_t first = 0; first < buffer_.size();) {
      PairMoments total = buffer_[first].moments;
      size_t last = first + 1;
      while (last < buffer_.size() && buffer_[last].a == buffer_[first].a &&
             buffer_[last].b == buffer_[first].b &&
             buffer_[last].shard == buffer_[first].shard) {
        total.Merge(buffer_[last].moments);
        ++last;
      }
      ++stats_.groups_out;
      FAIRREC_RETURN_NOT_OK(consume(buffer_[first].a, buffer_[first].b,
                                    buffer_[first].shard, total));
      first = last;
    }
    std::vector<Record>().swap(buffer_);
    return Status::OK();
  }

  // Spill the tail so the merge sees one uniform source shape, then release
  // the buffer — the merge's working set is k chunk buffers, not the
  // shuffle budget plus them.
  if (!buffer_.empty()) {
    FAIRREC_RETURN_NOT_OK(SpillRun());
  }
  std::vector<Record>().swap(buffer_);

  std::vector<RunCursor> cursors;
  cursors.reserve(runs_.size());
  for (const std::string& path : runs_) {
    FAIRREC_ASSIGN_OR_RETURN(RunFileReader reader, RunFileReader::Open(path));
    cursors.emplace_back(std::move(reader));
    FAIRREC_RETURN_NOT_OK(cursors.back().Advance());
  }

  // K-way merge over the cursors' heads. Keys are globally unique, so the
  // pop order *is* the unspilled sort order; the run-index tiebreak only
  // keeps the comparator a total order.
  const auto heap_greater = [&cursors](size_t x, size_t y) {
    const RunCursor& cx = cursors[x];
    const RunCursor& cy = cursors[y];
    if (RecordLess(cx.current, cy.current)) return false;
    if (RecordLess(cy.current, cx.current)) return true;
    return x > y;
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(heap_greater)>
      heap(heap_greater);
  for (size_t i = 0; i < cursors.size(); ++i) {
    if (!cursors[i].exhausted) heap.push(i);
  }

  bool have_group = false;
  Record group;
  while (!heap.empty()) {
    const size_t i = heap.top();
    heap.pop();
    const Record& r = cursors[i].current;
    if (have_group && r.a == group.a && r.b == group.b &&
        r.shard == group.shard) {
      group.moments.Merge(r.moments);
    } else {
      if (have_group) {
        ++stats_.groups_out;
        FAIRREC_RETURN_NOT_OK(
            consume(group.a, group.b, group.shard, group.moments));
      }
      group = r;
      have_group = true;
    }
    FAIRREC_RETURN_NOT_OK(cursors[i].Advance());
    if (!cursors[i].exhausted) heap.push(i);
  }
  if (have_group) {
    ++stats_.groups_out;
    FAIRREC_RETURN_NOT_OK(
        consume(group.a, group.b, group.shard, group.moments));
  }
  RemoveRuns();
  return Status::OK();
}

}  // namespace fairrec
