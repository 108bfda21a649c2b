#include "sim/moment_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/blob_io.h"
#include "common/logging.h"

namespace fairrec {

namespace {

/// Stripe count for the builder's row locks (power of two, see
/// PeerIndex::Builder).
constexpr size_t kLockStripes = 256;

/// Serialized footprint of one MomentEntry: other id + n + five sums.
/// Written field-by-field, so struct padding never reaches the blob.
constexpr size_t kEntryWireBytes =
    sizeof(int32_t) * 2 + sizeof(double) * 5;

/// Capacity slack kept on compacted rows (a few entries, ~0.2% of a typical
/// row's bytes). Incremental folds mostly add one pair to a row; headroom
/// turns that insert into a tail shift instead of a reallocation-plus-copy
/// of the whole row — the dominant cost of ApplyPairDeltas otherwise.
constexpr size_t kRowSlackEntries = 4;

void AppendRaw(std::string& out, const void* data, size_t bytes) {
  out.append(static_cast<const char*>(data), bytes);
}

bool ReadRaw(std::string_view in, size_t& cursor, void* data, size_t bytes) {
  if (cursor + bytes > in.size()) return false;
  std::memcpy(data, in.data() + cursor, bytes);
  cursor += bytes;
  return true;
}

size_t RowBytes(const std::vector<MomentEntry>& row) {
  return row.capacity() * sizeof(MomentEntry);
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

MomentStore::Builder::Builder(int32_t num_users, MomentStoreOptions options)
    : num_users_(num_users),
      options_(options),
      rows_(num_users > 0 ? static_cast<size_t>(num_users) : 0),
      stripes_(kLockStripes) {
  FAIRREC_CHECK(options.tile_users > 0);
}

void MomentStore::Builder::Add(UserId a, UserId b, const PairMoments& moments) {
  FAIRREC_DCHECK(a < b);
  if (a < 0 || b >= num_users_ || moments.n == 0) return;
  {
    std::lock_guard<std::mutex> lock(
        stripes_[static_cast<size_t>(a) & (kLockStripes - 1)]);
    rows_[static_cast<size_t>(a)].push_back({b, moments});
  }
  {
    std::lock_guard<std::mutex> lock(
        stripes_[static_cast<size_t>(b) & (kLockStripes - 1)]);
    rows_[static_cast<size_t>(b)].push_back({a, moments});
  }
}

MomentStore MomentStore::Builder::Build() && {
  MomentStore store;
  store.options_ = options_;
  store.EnsureNumUsers(num_users_);
  for (size_t u = 0; u < rows_.size(); ++u) {
    std::vector<MomentEntry>& row = rows_[u];
    std::sort(row.begin(), row.end(),
              [](const MomentEntry& x, const MomentEntry& y) {
                return x.other < y.other;
              });
#ifndef NDEBUG
    for (size_t k = 1; k < row.size(); ++k) {
      // Each pair is added exactly once; callers with per-shard partials
      // merge them (in a deterministic order) before Add, so the stored
      // moments never depend on builder thread interleaving.
      FAIRREC_DCHECK(row[k].other != row[k - 1].other);
    }
#endif
    const auto user = static_cast<UserId>(u);
    for (const MomentEntry& entry : row) {
      if (user < entry.other) ++store.num_pairs_;
    }
    // Compact to size + a little slack (instead of shrink_to_fit) so the
    // first incremental insert into a row shifts instead of reallocating.
    std::vector<MomentEntry> compact;
    compact.reserve(row.size() + kRowSlackEntries);
    compact.assign(row.begin(), row.end());
    std::vector<MomentEntry>().swap(row);
    store.MutableRow(user) = std::move(compact);
  }
  rows_.clear();
  for (size_t t = 0; t < store.tiles_.size(); ++t) {
    store.RecomputeTileBytes(t);
  }
  store.NotePeak();
  return store;
}

// ---------------------------------------------------------------------------
// MomentStore
// ---------------------------------------------------------------------------

MomentStore::Tile& MomentStore::TileOf(UserId u) {
  return tiles_[static_cast<size_t>(u) /
                static_cast<size_t>(options_.tile_users)];
}

const MomentStore::Tile& MomentStore::TileOf(UserId u) const {
  return tiles_[static_cast<size_t>(u) /
                static_cast<size_t>(options_.tile_users)];
}

std::vector<MomentEntry>& MomentStore::MutableRow(UserId u) {
  Tile& tile = TileOf(u);
  FAIRREC_DCHECK(tile.resident);
  return tile.rows[static_cast<size_t>(u) %
                   static_cast<size_t>(options_.tile_users)];
}

std::span<const MomentEntry> MomentStore::RowOf(UserId u) const {
  if (u < 0 || u >= num_users_) return {};
  const Tile& tile = TileOf(u);
  FAIRREC_DCHECK(tile.resident);
  return tile.rows[static_cast<size_t>(u) %
                   static_cast<size_t>(options_.tile_users)];
}

const PairMoments* MomentStore::FindPair(UserId a, UserId b) const {
  const auto row = RowOf(a);
  const auto it = std::lower_bound(
      row.begin(), row.end(), b,
      [](const MomentEntry& entry, UserId target) {
        return entry.other < target;
      });
  if (it == row.end() || it->other != b) return nullptr;
  return &it->moments;
}

void MomentStore::EnsureNumUsers(int32_t num_users) {
  FAIRREC_CHECK(options_.tile_users > 0);
  if (num_users <= num_users_) return;
  num_users_ = num_users;
  const size_t tile = static_cast<size_t>(options_.tile_users);
  const size_t needed_tiles =
      (static_cast<size_t>(num_users) + tile - 1) / tile;
  if (tiles_.size() < needed_tiles) tiles_.resize(needed_tiles);
  for (size_t t = 0; t < tiles_.size(); ++t) {
    const size_t rows_in_tile =
        std::min(tile, static_cast<size_t>(num_users) - t * tile);
    if (tiles_[t].rows.size() < rows_in_tile) {
      FAIRREC_CHECK(tiles_[t].resident);
      tiles_[t].rows.resize(rows_in_tile);
    }
  }
}

void MomentStore::AssignRow(UserId u, std::span<const MomentEntry> entries) {
  FAIRREC_DCHECK(u >= 0 && u < num_users_);
  std::vector<MomentEntry>& row = MutableRow(u);
  FAIRREC_DCHECK(row.empty());
  row.reserve(entries.size() + kRowSlackEntries);
  row.assign(entries.begin(), entries.end());
  for (size_t k = 0; k < entries.size(); ++k) {
    FAIRREC_DCHECK(entries[k].moments.n > 0 && entries[k].other != u);
    FAIRREC_DCHECK(k == 0 || entries[k - 1].other < entries[k].other);
    if (u < entries[k].other) ++num_pairs_;
  }
}

void MomentStore::FinalizeAssembledTile(size_t t) {
  FAIRREC_DCHECK(t < tiles_.size());
  FAIRREC_CHECK(tiles_[t].resident);
  RecomputeTileBytes(t);
  NotePeak();
}

size_t MomentStore::RowBytesFor(size_t entries) {
  return (entries + kRowSlackEntries) * sizeof(MomentEntry);
}

void MomentStore::ApplyPairDeltas(std::span<const PairMomentsDelta> deltas) {
  if (deltas.empty()) return;

  // Scatter the canonical deltas into per-row change lists: each pair
  // (a, b) lands in row a keyed by b and in row b keyed by a. Sorting by
  // (row, other) lets every affected row absorb its changes in one sorted
  // merge against its existing entries.
  struct RowChange {
    UserId row = kInvalidUserId;
    UserId other = kInvalidUserId;
    const PairMoments* delta = nullptr;
  };
  std::vector<RowChange> changes;
  changes.reserve(deltas.size() * 2);
  for (const PairMomentsDelta& d : deltas) {
    FAIRREC_DCHECK(d.a >= 0 && d.a < d.b && d.b < num_users_);
    changes.push_back({d.a, d.b, &d.delta});
    changes.push_back({d.b, d.a, &d.delta});
  }
  std::sort(changes.begin(), changes.end(),
            [](const RowChange& x, const RowChange& y) {
              return x.row != y.row ? x.row < y.row : x.other < y.other;
            });

  // Per affected row, one merge walk classifies the changes: moment merges
  // of existing pairs are written in place (no movement at all — the common
  // case for rows that already co-rate the delta users), a single insert
  // into a row with capacity headroom is a tail shift, and only rows with
  // several structural edits pay a scratch rebuild. This keeps the fold's
  // byte traffic proportional to the edits, not to three copies of every
  // affected row.
  struct PendingInsert {
    size_t pos = 0;  // position in the pre-edit row
    UserId other = kInvalidUserId;
    const PairMoments* delta = nullptr;
  };
  std::vector<PendingInsert> inserts;
  std::vector<size_t> erases;  // ascending positions in the pre-edit row
  std::vector<MomentEntry> scratch;
  for (size_t first = 0; first < changes.size();) {
    size_t last = first;
    while (last < changes.size() && changes[last].row == changes[first].row) {
      ++last;
    }
    const UserId u = changes[first].row;
    std::vector<MomentEntry>& row = MutableRow(u);
    inserts.clear();
    erases.clear();
    size_t pos = 0;
    for (size_t c = first; c < last; ++c) {
      const UserId other = changes[c].other;
      pos = static_cast<size_t>(
          std::lower_bound(row.begin() + static_cast<ptrdiff_t>(pos),
                           row.end(), other,
                           [](const MomentEntry& entry, UserId target) {
                             return entry.other < target;
                           }) -
          row.begin());
      if (pos < row.size() && row[pos].other == other) {
        PairMoments merged = row[pos].moments;
        merged.Merge(*changes[c].delta);
        FAIRREC_DCHECK(merged.n >= 0);
        if (merged.n > 0) {
          row[pos].moments = merged;  // in place
        } else {
          erases.push_back(pos);
          if (u < other) --num_pairs_;  // count once, on the canonical side
        }
      } else {
        // Inserting a brand-new pair: the delta must describe real
        // co-ratings, not the removal of ones we never stored.
        FAIRREC_DCHECK(changes[c].delta->n > 0);
        inserts.push_back({pos, other, changes[c].delta});
        if (u < other) ++num_pairs_;
      }
    }

    if (inserts.empty() && erases.empty()) {
      first = last;
      continue;  // merges only: the row was edited in place
    }
    if (inserts.empty()) {
      // Erases only: one forward compaction from the first hole.
      size_t write = erases[0];
      size_t next_erase = 0;
      for (size_t read = erases[0]; read < row.size(); ++read) {
        if (next_erase < erases.size() && erases[next_erase] == read) {
          ++next_erase;
          continue;
        }
        row[write++] = row[read];
      }
      row.resize(write);
    } else if (erases.empty() && inserts.size() == 1 &&
               row.size() < row.capacity()) {
      row.insert(row.begin() + static_cast<ptrdiff_t>(inserts[0].pos),
                 {inserts[0].other, *inserts[0].delta});
    } else {
      // General case: rebuild through a shared scratch buffer, then move it
      // into a row sized with slack so the next fold's insert is cheap.
      scratch.clear();
      scratch.reserve(row.size() + inserts.size());
      size_t read = 0;
      size_t next_erase = 0;
      for (const PendingInsert& pending : inserts) {
        while (read < pending.pos) {
          if (next_erase < erases.size() && erases[next_erase] == read) {
            ++next_erase;
            ++read;
            continue;
          }
          scratch.push_back(row[read++]);
        }
        scratch.push_back({pending.other, *pending.delta});
      }
      while (read < row.size()) {
        if (next_erase < erases.size() && erases[next_erase] == read) {
          ++next_erase;
          ++read;
          continue;
        }
        scratch.push_back(row[read++]);
      }
      if (row.capacity() < scratch.size()) {
        std::vector<MomentEntry> grown;
        grown.reserve(scratch.size() + kRowSlackEntries);
        row = std::move(grown);
      }
      row.assign(scratch.begin(), scratch.end());
    }
    first = last;
  }

  // Affected tiles: recompute byte accounting once per tile.
  const size_t tile = static_cast<size_t>(options_.tile_users);
  size_t prev_tile = tiles_.size();
  for (const RowChange& change : changes) {
    const size_t t = static_cast<size_t>(change.row) / tile;
    if (t != prev_tile) {
      RecomputeTileBytes(t);
      prev_tile = t;
    }
  }
  NotePeak();
}

std::pair<UserId, UserId> MomentStore::TileUserRange(size_t t) const {
  FAIRREC_DCHECK(t < tiles_.size());
  const auto first =
      static_cast<UserId>(t * static_cast<size_t>(options_.tile_users));
  const auto last = static_cast<UserId>(
      std::min<size_t>(static_cast<size_t>(first) + options_.tile_users,
                       static_cast<size_t>(num_users_)));
  return {first, last};
}

bool MomentStore::TileResident(size_t t) const {
  FAIRREC_DCHECK(t < tiles_.size());
  return tiles_[t].resident;
}

size_t MomentStore::TileBytes(size_t t) const {
  FAIRREC_DCHECK(t < tiles_.size());
  return tiles_[t].bytes;
}

std::string MomentStore::SerializeTile(size_t t) const {
  FAIRREC_DCHECK(t < tiles_.size());
  const Tile& tile = tiles_[t];
  FAIRREC_CHECK(tile.resident);
  std::string blob;
  const auto num_rows = static_cast<uint32_t>(tile.rows.size());
  AppendRaw(blob, &num_rows, sizeof(num_rows));
  for (const std::vector<MomentEntry>& row : tile.rows) {
    const auto count = static_cast<uint64_t>(row.size());
    AppendRaw(blob, &count, sizeof(count));
    for (const MomentEntry& entry : row) {
      AppendRaw(blob, &entry.other, sizeof(entry.other));
      AppendRaw(blob, &entry.moments.n, sizeof(entry.moments.n));
      AppendRaw(blob, &entry.moments.sum_a, sizeof(double));
      AppendRaw(blob, &entry.moments.sum_b, sizeof(double));
      AppendRaw(blob, &entry.moments.sum_aa, sizeof(double));
      AppendRaw(blob, &entry.moments.sum_bb, sizeof(double));
      AppendRaw(blob, &entry.moments.sum_ab, sizeof(double));
    }
  }
  // While the caller holds this blob the process carries both the resident
  // rows and their serialized copy — the spill path's transient footprint.
  NoteTransientPeak(blob.size());
  return blob;
}

size_t MomentStore::EvictTile(size_t t) {
  FAIRREC_DCHECK(t < tiles_.size());
  Tile& tile = tiles_[t];
  if (!tile.resident) return 0;
  const size_t freed = tile.bytes;
  const size_t rows = tile.rows.size();
  std::vector<std::vector<MomentEntry>>().swap(tile.rows);
  tile.rows.resize(rows);  // keep the shape; entries are gone
  tile.resident = false;
  tile.bytes = 0;
  return freed;
}

Status MomentStore::RestoreTile(size_t t, std::string_view blob) {
  if (t >= tiles_.size()) {
    return Status::InvalidArgument("tile index out of range");
  }
  Tile& tile = tiles_[t];
  if (tile.resident) {
    // Restoring over live rows would silently discard any fold applied
    // since the blob was serialized.
    return Status::FailedPrecondition(
        "restore into a resident tile; evict it first");
  }
  const auto [first_user, last_user] = TileUserRange(t);
  size_t cursor = 0;
  uint32_t num_rows = 0;
  if (!ReadRaw(blob, cursor, &num_rows, sizeof(num_rows)) ||
      num_rows != tile.rows.size()) {
    return Status::InvalidArgument("moment tile blob has the wrong row count");
  }
  std::vector<std::vector<MomentEntry>> rows(num_rows);
  for (uint32_t row_index = 0; row_index < num_rows; ++row_index) {
    uint64_t count = 0;
    // Divide instead of multiply: a corrupt count like 2^60 must fail the
    // bound check, not wrap modulo 2^64 and reach reserve().
    if (!ReadRaw(blob, cursor, &count, sizeof(count)) ||
        count > (blob.size() - cursor) / kEntryWireBytes) {
      return Status::InvalidArgument("truncated moment tile blob");
    }
    const UserId row_user = first_user + static_cast<UserId>(row_index);
    std::vector<MomentEntry>& row = rows[row_index];
    // Same capacity policy as Builder's compaction, so evict + restore is
    // byte-accounting neutral and restored rows keep the insert headroom.
    row.reserve(static_cast<size_t>(count) + kRowSlackEntries);
    row.resize(static_cast<size_t>(count));
    UserId prev_other = kInvalidUserId;
    for (MomentEntry& entry : row) {
      if (!ReadRaw(blob, cursor, &entry.other, sizeof(entry.other)) ||
          !ReadRaw(blob, cursor, &entry.moments.n, sizeof(entry.moments.n)) ||
          !ReadRaw(blob, cursor, &entry.moments.sum_a, sizeof(double)) ||
          !ReadRaw(blob, cursor, &entry.moments.sum_b, sizeof(double)) ||
          !ReadRaw(blob, cursor, &entry.moments.sum_aa, sizeof(double)) ||
          !ReadRaw(blob, cursor, &entry.moments.sum_bb, sizeof(double)) ||
          !ReadRaw(blob, cursor, &entry.moments.sum_ab, sizeof(double))) {
        return Status::InvalidArgument("truncated moment tile blob");
      }
      // A blob that frames correctly can still carry flipped bits in its
      // values; reject anything the store could never have produced.
      if (entry.other < 0 || entry.other >= num_users_ ||
          entry.other == row_user) {
        return Status::InvalidArgument("moment tile entry id out of range");
      }
      if (prev_other != kInvalidUserId && entry.other <= prev_other) {
        return Status::InvalidArgument("moment tile row not sorted");
      }
      prev_other = entry.other;
      if (entry.moments.n <= 0) {
        return Status::InvalidArgument(
            "moment tile entry with non-positive overlap");
      }
      if (!std::isfinite(entry.moments.sum_a) ||
          !std::isfinite(entry.moments.sum_b) ||
          !std::isfinite(entry.moments.sum_aa) ||
          !std::isfinite(entry.moments.sum_bb) ||
          !std::isfinite(entry.moments.sum_ab)) {
        return Status::InvalidArgument("non-finite moment in tile blob");
      }
    }
  }
  if (cursor != blob.size()) {
    return Status::InvalidArgument("trailing bytes in moment tile blob");
  }
  (void)last_user;
  // The re-materialization high-water: the freshly decoded rows and the
  // caller's blob coexist with everything already resident before the
  // install below — the footprint an evict→restore cycle actually reaches.
  // Noting only the post-install residency would under-report it.
  {
    size_t incoming = 0;
    for (const std::vector<MomentEntry>& row : rows) incoming += RowBytes(row);
    NoteTransientPeak(incoming + blob.size());
  }
  tile.rows = std::move(rows);
  tile.resident = true;
  RecomputeTileBytes(t);
  NotePeak();
  return Status::OK();
}

void MomentStore::SerializeTo(std::string& out) const {
  BlobWriter writer(&out);
  writer.I32(options_.tile_users);
  writer.I32(num_users_);
  writer.U64(static_cast<uint64_t>(num_pairs_));
  writer.U64(static_cast<uint64_t>(tiles_.size()));
  for (size_t t = 0; t < tiles_.size(); ++t) {
    FAIRREC_CHECK(tiles_[t].resident);
    writer.Framed(SerializeTile(t));
  }
}

Result<MomentStore> MomentStore::Deserialize(std::string_view bytes) {
  BlobReader reader(bytes);
  int32_t tile_users = 0;
  int32_t num_users = 0;
  uint64_t num_pairs = 0;
  uint64_t num_tiles = 0;
  if (!reader.I32(&tile_users) || !reader.I32(&num_users) ||
      !reader.U64(&num_pairs) || !reader.U64(&num_tiles)) {
    return Status::DataLoss("truncated moment store header");
  }
  if (tile_users <= 0 || num_users < 0) {
    return Status::DataLoss("impossible moment store header");
  }
  MomentStore store;
  store.options_.tile_users = tile_users;
  store.EnsureNumUsers(num_users);
  if (num_tiles != store.tiles_.size()) {
    return Status::DataLoss("moment store tile count mismatch");
  }
  int64_t counted_pairs = 0;
  for (size_t t = 0; t < store.tiles_.size(); ++t) {
    std::string_view tile_blob;
    FAIRREC_RETURN_NOT_OK(reader.FramedSection(&tile_blob));
    store.EvictTile(t);  // EnsureNumUsers created the tile resident-empty
    const Status restored = store.RestoreTile(t, tile_blob);
    if (!restored.ok()) {
      // Framing was intact but the values were not; surface it as the
      // integrity failure it is.
      return Status::DataLoss(std::string(restored.message()));
    }
    const auto [first_user, last_user] = store.TileUserRange(t);
    for (UserId u = first_user; u < last_user; ++u) {
      for (const MomentEntry& entry : store.RowOf(u)) {
        if (u < entry.other) ++counted_pairs;
      }
    }
  }
  if (!reader.exhausted()) {
    return Status::DataLoss("trailing bytes in moment store");
  }
  if (counted_pairs != static_cast<int64_t>(num_pairs)) {
    return Status::DataLoss("moment store pair count mismatch");
  }
  store.num_pairs_ = counted_pairs;
  return store;
}

bool operator==(const MomentStore& a, const MomentStore& b) {
  if (a.num_users_ != b.num_users_ || a.num_pairs_ != b.num_pairs_ ||
      a.options_.tile_users != b.options_.tile_users) {
    return false;
  }
  for (UserId u = 0; u < a.num_users_; ++u) {
    const auto row_a = a.RowOf(u);
    const auto row_b = b.RowOf(u);
    if (!std::equal(row_a.begin(), row_a.end(), row_b.begin(), row_b.end())) {
      return false;
    }
  }
  return true;
}

size_t MomentStore::ResidentBytes() const {
  size_t total = 0;
  for (const Tile& tile : tiles_) total += tile.bytes;
  return total;
}

void MomentStore::RecomputeTileBytes(size_t t) {
  Tile& tile = tiles_[t];
  size_t bytes = 0;
  for (const std::vector<MomentEntry>& row : tile.rows) bytes += RowBytes(row);
  tile.bytes = bytes;
}

void MomentStore::NotePeak() {
  peak_bytes_ = std::max(peak_bytes_, ResidentBytes());
}

void MomentStore::NoteTransientPeak(size_t extra_bytes) const {
  peak_bytes_ = std::max(peak_bytes_, ResidentBytes() + extra_bytes);
}

}  // namespace fairrec
