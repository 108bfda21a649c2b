#include "ratings/rating_matrix.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/blob_io.h"
#include "common/logging.h"

namespace fairrec {

double RatingMatrix::Density() const {
  const double cells = static_cast<double>(num_users_) * num_items_;
  return cells == 0.0 ? 0.0 : static_cast<double>(num_ratings()) / cells;
}

std::span<const ItemRating> RatingMatrix::ItemsRatedBy(UserId u) const {
  FAIRREC_DCHECK(IsValidUser(u));
  const auto begin = static_cast<size_t>(by_user_offsets_[static_cast<size_t>(u)]);
  const auto end = static_cast<size_t>(by_user_offsets_[static_cast<size_t>(u) + 1]);
  return {by_user_entries_.data() + begin, end - begin};
}

std::span<const UserRating> RatingMatrix::UsersWhoRated(ItemId i) const {
  FAIRREC_DCHECK(IsValidItem(i));
  const auto begin = static_cast<size_t>(by_item_offsets_[static_cast<size_t>(i)]);
  const auto end = static_cast<size_t>(by_item_offsets_[static_cast<size_t>(i) + 1]);
  return {by_item_entries_.data() + begin, end - begin};
}

std::optional<Rating> RatingMatrix::GetRating(UserId u, ItemId i) const {
  if (!IsValidUser(u) || !IsValidItem(i)) return std::nullopt;
  const auto row = ItemsRatedBy(u);
  const auto it = std::lower_bound(
      row.begin(), row.end(), i,
      [](const ItemRating& entry, ItemId target) { return entry.item < target; });
  if (it == row.end() || it->item != i) return std::nullopt;
  return it->value;
}

double RatingMatrix::UserMean(UserId u) const {
  FAIRREC_DCHECK(IsValidUser(u));
  return user_means_[static_cast<size_t>(u)];
}

int32_t RatingMatrix::UserDegree(UserId u) const {
  FAIRREC_DCHECK(IsValidUser(u));
  return static_cast<int32_t>(by_user_offsets_[static_cast<size_t>(u) + 1] -
                              by_user_offsets_[static_cast<size_t>(u)]);
}

int32_t RatingMatrix::ItemDegree(ItemId i) const {
  FAIRREC_DCHECK(IsValidItem(i));
  return static_cast<int32_t>(by_item_offsets_[static_cast<size_t>(i) + 1] -
                              by_item_offsets_[static_cast<size_t>(i)]);
}

std::vector<ItemId> RatingMatrix::ItemsUnratedByAll(const Group& group) const {
  std::vector<bool> rated(static_cast<size_t>(num_items_), false);
  for (UserId u : group) {
    if (!IsValidUser(u)) continue;
    for (const ItemRating& entry : ItemsRatedBy(u)) {
      rated[static_cast<size_t>(entry.item)] = true;
    }
  }
  std::vector<ItemId> out;
  for (ItemId i = 0; i < num_items_; ++i) {
    if (!rated[static_cast<size_t>(i)]) out.push_back(i);
  }
  return out;
}

std::vector<ItemId> RatingMatrix::ItemsUnratedBy(UserId u) const {
  return ItemsUnratedByAll(Group{u});
}

std::vector<RatingTriple> RatingMatrix::ToTriples() const {
  std::vector<RatingTriple> out;
  out.reserve(static_cast<size_t>(num_ratings()));
  for (UserId u = 0; u < num_users_; ++u) {
    for (const ItemRating& entry : ItemsRatedBy(u)) {
      out.push_back({u, entry.item, entry.value});
    }
  }
  return out;
}

void RatingMatrix::SerializeTo(std::string& out) const {
  BlobWriter writer(&out);
  writer.I32(num_users_);
  writer.I32(num_items_);
  writer.U64(static_cast<uint64_t>(by_user_entries_.size()));
  for (UserId u = 0; u < num_users_; ++u) {
    const auto row = ItemsRatedBy(u);
    writer.U64(static_cast<uint64_t>(row.size()));
    for (const ItemRating& entry : row) {
      writer.I32(entry.item);
      writer.F64(entry.value);
    }
  }
  for (const double mean : user_means_) writer.F64(mean);
}

Result<RatingMatrix> RatingMatrix::Deserialize(std::string_view bytes) {
  BlobReader reader(bytes);
  int32_t num_users = 0;
  int32_t num_items = 0;
  uint64_t num_ratings = 0;
  if (!reader.I32(&num_users) || !reader.I32(&num_items) ||
      !reader.U64(&num_ratings)) {
    return Status::DataLoss("truncated rating matrix header");
  }
  if (num_users < 0 || num_items < 0) {
    return Status::DataLoss("impossible rating matrix grid");
  }
  constexpr size_t kCellBytes = sizeof(int32_t) + sizeof(double);
  if (num_ratings > reader.remaining() / kCellBytes) {
    return Status::DataLoss("rating count exceeds the bytes present");
  }

  RatingMatrix m;
  m.num_users_ = num_users;
  m.num_items_ = num_items;
  m.by_user_offsets_.assign(static_cast<size_t>(num_users) + 1, 0);
  m.by_user_entries_.reserve(static_cast<size_t>(num_ratings));
  for (UserId u = 0; u < num_users; ++u) {
    uint64_t row_len = 0;
    if (!reader.U64(&row_len)) {
      return Status::DataLoss("truncated rating matrix row");
    }
    ItemId prev_item = kInvalidItemId;
    for (uint64_t k = 0; k < row_len; ++k) {
      int32_t item = 0;
      double value = 0.0;
      if (!reader.I32(&item) || !reader.F64(&value)) {
        return Status::DataLoss("truncated rating matrix row");
      }
      if (item < 0 || item >= num_items || item <= prev_item) {
        return Status::DataLoss("rating matrix row not sorted in range");
      }
      if (!std::isfinite(value)) {
        return Status::DataLoss("non-finite rating value");
      }
      prev_item = item;
      m.by_user_entries_.push_back({item, value});
    }
    m.by_user_offsets_[static_cast<size_t>(u) + 1] =
        static_cast<int64_t>(m.by_user_entries_.size());
  }
  if (m.by_user_entries_.size() != num_ratings) {
    return Status::DataLoss("rating matrix row lengths disagree with total");
  }
  m.user_means_.assign(static_cast<size_t>(num_users), 0.0);
  for (double& mean : m.user_means_) {
    if (!reader.F64(&mean)) {
      return Status::DataLoss("truncated rating matrix means");
    }
    if (!std::isfinite(mean)) {
      return Status::DataLoss("non-finite user mean");
    }
  }
  if (!reader.exhausted()) {
    return Status::DataLoss("trailing bytes in rating matrix");
  }

  // The by-item CSR is not stored: every construction path (builder sort,
  // ApplyTo merge) leaves columns ascending in user id, so the stable
  // counting-sort transpose reproduces it exactly.
  m.by_item_offsets_.assign(static_cast<size_t>(num_items) + 1, 0);
  for (const ItemRating& entry : m.by_user_entries_) {
    m.by_item_offsets_[static_cast<size_t>(entry.item) + 1]++;
  }
  for (size_t i = 0; i < static_cast<size_t>(num_items); ++i) {
    m.by_item_offsets_[i + 1] += m.by_item_offsets_[i];
  }
  m.by_item_entries_.resize(m.by_user_entries_.size());
  {
    std::vector<int64_t> cursor(m.by_item_offsets_.begin(),
                                m.by_item_offsets_.end() - 1);
    for (UserId u = 0; u < num_users; ++u) {
      for (const ItemRating& entry : m.ItemsRatedBy(u)) {
        m.by_item_entries_[static_cast<size_t>(
            cursor[static_cast<size_t>(entry.item)]++)] = {u, entry.value};
      }
    }
  }
  return m;
}

bool operator==(const RatingMatrix& a, const RatingMatrix& b) {
  return a.num_users_ == b.num_users_ && a.num_items_ == b.num_items_ &&
         a.by_user_offsets_ == b.by_user_offsets_ &&
         a.by_user_entries_ == b.by_user_entries_ &&
         a.user_means_ == b.user_means_;
}

RatingMatrixBuilder& RatingMatrixBuilder::Reserve(int32_t num_users,
                                                  int32_t num_items) {
  num_users_ = std::max(num_users_, num_users);
  num_items_ = std::max(num_items_, num_items);
  return *this;
}

RatingMatrixBuilder& RatingMatrixBuilder::allow_any_scale(bool allow) {
  allow_any_scale_ = allow;
  return *this;
}

Status RatingMatrixBuilder::Add(UserId user, ItemId item, Rating value) {
  if (user < 0) {
    return Status::InvalidArgument("negative user id: " + std::to_string(user));
  }
  if (item < 0) {
    return Status::InvalidArgument("negative item id: " + std::to_string(item));
  }
  if (!allow_any_scale_ && !IsValidRating(value)) {
    return Status::InvalidArgument("rating outside [1,5]: " +
                                   std::to_string(value));
  }
  triples_.push_back({user, item, value});
  num_users_ = std::max(num_users_, user + 1);
  num_items_ = std::max(num_items_, item + 1);
  return Status::OK();
}

Status RatingMatrixBuilder::AddAll(const std::vector<RatingTriple>& triples) {
  for (const RatingTriple& t : triples) {
    FAIRREC_RETURN_NOT_OK(Add(t.user, t.item, t.value));
  }
  return Status::OK();
}

Result<RatingMatrix> RatingMatrixBuilder::Build() {
  std::sort(triples_.begin(), triples_.end(),
            [](const RatingTriple& a, const RatingTriple& b) {
              return a.user != b.user ? a.user < b.user : a.item < b.item;
            });
  for (size_t k = 1; k < triples_.size(); ++k) {
    if (triples_[k].user == triples_[k - 1].user &&
        triples_[k].item == triples_[k - 1].item) {
      return Status::AlreadyExists(
          "duplicate rating for user " + std::to_string(triples_[k].user) +
          ", item " + std::to_string(triples_[k].item));
    }
  }

  RatingMatrix m;
  m.num_users_ = num_users_;
  m.num_items_ = num_items_;

  // CSR by user (triples are already user-major sorted).
  m.by_user_offsets_.assign(static_cast<size_t>(num_users_) + 1, 0);
  m.by_user_entries_.reserve(triples_.size());
  for (const RatingTriple& t : triples_) {
    m.by_user_offsets_[static_cast<size_t>(t.user) + 1]++;
  }
  for (size_t u = 0; u < static_cast<size_t>(num_users_); ++u) {
    m.by_user_offsets_[u + 1] += m.by_user_offsets_[u];
  }
  for (const RatingTriple& t : triples_) {
    m.by_user_entries_.push_back({t.item, t.value});
  }

  // CSR by item via counting sort on item id (stable, preserves user order).
  m.by_item_offsets_.assign(static_cast<size_t>(num_items_) + 1, 0);
  for (const RatingTriple& t : triples_) {
    m.by_item_offsets_[static_cast<size_t>(t.item) + 1]++;
  }
  for (size_t i = 0; i < static_cast<size_t>(num_items_); ++i) {
    m.by_item_offsets_[i + 1] += m.by_item_offsets_[i];
  }
  m.by_item_entries_.resize(triples_.size());
  {
    std::vector<int64_t> cursor(m.by_item_offsets_.begin(),
                                m.by_item_offsets_.end() - 1);
    for (const RatingTriple& t : triples_) {
      m.by_item_entries_[static_cast<size_t>(
          cursor[static_cast<size_t>(t.item)]++)] = {t.user, t.value};
    }
  }

  // Per-user means (µ_u of Eq. 2).
  m.user_means_.assign(static_cast<size_t>(num_users_), 0.0);
  for (UserId u = 0; u < num_users_; ++u) {
    const auto row = m.ItemsRatedBy(u);
    if (row.empty()) continue;
    double sum = 0.0;
    for (const ItemRating& entry : row) sum += entry.value;
    m.user_means_[static_cast<size_t>(u)] = sum / static_cast<double>(row.size());
  }

  triples_.clear();
  num_users_ = 0;
  num_items_ = 0;
  return m;
}

}  // namespace fairrec
