#ifndef FAIRREC_RATINGS_RATING_MATRIX_H_
#define FAIRREC_RATINGS_RATING_MATRIX_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ratings/types.h"

namespace fairrec {

/// Immutable sparse user-item rating matrix, stored CSR-style in *both*
/// orientations so that the two access patterns of collaborative filtering are
/// O(degree): I(u) = items rated by a user (rows) and U(i) = users who rated
/// an item (columns). Per-user rating means (the µ_u of Eq. 2) are
/// precomputed at build time.
///
/// Construct via RatingMatrixBuilder. Copyable; cheap to move.
class RatingMatrix {
 public:
  RatingMatrix() = default;

  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return num_items_; }
  int64_t num_ratings() const { return static_cast<int64_t>(by_user_entries_.size()); }

  /// Fraction of the num_users x num_items grid that is populated.
  double Density() const;

  /// I(u): items rated by `u`, sorted by item id. Precondition: valid id.
  std::span<const ItemRating> ItemsRatedBy(UserId u) const;

  /// U(i): users who rated `i`, sorted by user id. Precondition: valid id.
  std::span<const UserRating> UsersWhoRated(ItemId i) const;

  /// rating(u, i), or nullopt if u has not rated i. O(log |I(u)|).
  std::optional<Rating> GetRating(UserId u, ItemId i) const;

  bool HasRating(UserId u, ItemId i) const { return GetRating(u, i).has_value(); }

  /// µ_u: mean of u's ratings; 0.0 for users with no ratings.
  double UserMean(UserId u) const;

  /// Number of ratings by user u.
  int32_t UserDegree(UserId u) const;

  /// Number of ratings on item i.
  int32_t ItemDegree(ItemId i) const;

  /// Items that *no* member of `group` has rated — the group candidate set of
  /// the paper's Job 1 ("if no user in the group has rated that item ... it
  /// will be considered as a recommendation"). Sorted ascending.
  std::vector<ItemId> ItemsUnratedByAll(const Group& group) const;

  /// Items that user `u` has not rated. Sorted ascending.
  std::vector<ItemId> ItemsUnratedBy(UserId u) const;

  /// All stored triples in (user, item) order.
  std::vector<RatingTriple> ToTriples() const;

  bool IsValidUser(UserId u) const { return u >= 0 && u < num_users_; }
  bool IsValidItem(ItemId i) const { return i >= 0 && i < num_items_; }

  /// Appends the matrix in snapshot wire form: grid size, the by-user CSR,
  /// and the stored per-user means. The by-item CSR is *not* written — it is
  /// a deterministic transpose (columns ascend in user id in every
  /// construction path) and is rebuilt on load. The means are written
  /// verbatim, never recomputed, because their exact bits are
  /// summation-order-dependent and the recovery parity guarantee is bitwise.
  void SerializeTo(std::string& out) const;

  /// Rebuilds a matrix from SerializeTo bytes, validating the CSR shape
  /// (monotone offsets, ids in range, rows sorted strictly ascending) and
  /// every value finite. DataLoss on anything a builder could not have
  /// produced.
  static Result<RatingMatrix> Deserialize(std::string_view bytes);

  /// Bitwise logical equality: same grid, same cells, identical rating and
  /// mean bits.
  friend bool operator==(const RatingMatrix& a, const RatingMatrix& b);

 private:
  friend class RatingMatrixBuilder;
  // RatingDelta::ApplyTo splices a batch of upserts into a copy of the CSR
  // arrays in O(ratings + batch), bypassing the builder's global re-sort.
  friend class RatingDelta;

  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  // CSR by user.
  std::vector<int64_t> by_user_offsets_;  // size num_users_+1
  std::vector<ItemRating> by_user_entries_;
  // CSR by item.
  std::vector<int64_t> by_item_offsets_;  // size num_items_+1
  std::vector<UserRating> by_item_entries_;
  std::vector<double> user_means_;  // size num_users_
};

/// Accumulates rating triples and produces an immutable RatingMatrix.
///
/// Duplicate (user, item) pairs are rejected at Build() time; ratings outside
/// [1, 5] are rejected at Add() time unless allow_any_scale(true) is set
/// (useful for unit tests of the math kernels).
class RatingMatrixBuilder {
 public:
  RatingMatrixBuilder() = default;

  /// Pre-declares the grid size; ids beyond it still grow the grid.
  RatingMatrixBuilder& Reserve(int32_t num_users, int32_t num_items);

  /// Accepts ratings outside the 1..5 scale (default false).
  RatingMatrixBuilder& allow_any_scale(bool allow);

  /// Adds one observation. Returns InvalidArgument for negative ids or
  /// off-scale values.
  Status Add(UserId user, ItemId item, Rating value);

  /// Adds a batch; stops at the first error.
  Status AddAll(const std::vector<RatingTriple>& triples);

  /// Validates (no duplicate cells) and builds. The builder is left empty.
  Result<RatingMatrix> Build();

 private:
  std::vector<RatingTriple> triples_;
  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  bool allow_any_scale_ = false;
};

}  // namespace fairrec

#endif  // FAIRREC_RATINGS_RATING_MATRIX_H_
