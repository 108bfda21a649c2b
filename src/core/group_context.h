#ifndef FAIRREC_CORE_GROUP_CONTEXT_H_
#define FAIRREC_CORE_GROUP_CONTEXT_H_

#include <optional>
#include <span>
#include <vector>

#include "cf/recommender.h"
#include "common/logging.h"
#include "common/result.h"
#include "core/aggregation.h"
#include "ratings/types.h"

namespace fairrec {

/// One group candidate item with its aggregated and per-member relevance.
/// A view into the GroupContext that returned it: valid only while that
/// context lives.
struct GroupCandidate {
  ItemId item = kInvalidItemId;
  /// relevanceG(G, i) under the context's aggregation (Def. 2).
  double group_relevance = 0.0;
  /// relevance(u, i) per member, aligned with GroupContext::members();
  /// NaN marks "undefined for this member".
  std::span<const double> member_relevance;
};

/// Controls for GroupContext::Build.
struct GroupContextOptions {
  AggregationKind aggregation = AggregationKind::kAverage;
  /// Parameters for the parameterized extension designs (kMiseryBlend).
  AggregationParams aggregation_params;
  /// k of the per-member A_u sets that fairness (Def. 3) tests against.
  int32_t top_k = 10;
  /// Keep only items whose relevance is defined for *every* member (default).
  /// When false, items defined for at least one member are kept and the
  /// aggregation runs over the defined subset only.
  bool require_all_members = true;
};

/// The immutable working set shared by all top-z selectors: the group's
/// candidate items (with per-member and aggregated relevance) and each
/// member's A_u. A_u is the member's top-k *within the candidate set*, so
/// every fairness witness is actually selectable — this keeps Algorithm 1,
/// the brute force, and Proposition 1 mutually consistent.
///
/// Stored as flat columns, one row per candidate in ascending item id: the
/// item ids, the group relevance, a row-major [candidate x member] relevance
/// array and a [candidate x member] A_u flag array.
class GroupContext {
 public:
  /// An empty context (no members, no candidates). Useful as a placeholder
  /// in aggregates; every accessor taking an index DCHECKs, so an empty
  /// context must be replaced via Build() before use.
  GroupContext() = default;

  /// Builds from per-member relevance tables (cf::Recommender output).
  /// Fails when `members` is empty or a member's relevance list is not
  /// strictly ascending by non-negative item id. A NaN score counts as no
  /// estimate. Item ids are expected dense (rating-matrix ids): the build's
  /// scratch is one slot per id up to the largest.
  static Result<GroupContext> Build(const std::vector<MemberRelevance>& members,
                                    GroupContextOptions options = {});

  /// Returns a context restricted to the m candidates with the highest group
  /// relevance (ties: ascending item id) — the "m candidate recommendations
  /// to choose from" knob of the paper's evaluation (§VI). A_u sets are
  /// recomputed within the restricted universe. m >= num_candidates() is a
  /// copy.
  GroupContext RestrictToTopM(int32_t m) const;

  int32_t group_size() const { return static_cast<int32_t>(members_.size()); }
  const Group& members() const { return members_; }
  const GroupContextOptions& options() const { return options_; }

  int32_t num_candidates() const { return static_cast<int32_t>(items_.size()); }

  GroupCandidate candidate(int32_t index) const {
    FAIRREC_DCHECK(index >= 0 && index < num_candidates());
    const auto row = static_cast<size_t>(index);
    const size_t n = members_.size();
    return {items_[row], group_relevance_[row],
            std::span<const double>(relevance_).subspan(row * n, n)};
  }

  /// Every candidate index by descending group relevance, ties ascending item
  /// id: the order RestrictToTopM keeps a prefix of, and the selectors'
  /// best-by-relevance seeds.
  std::vector<int32_t> CandidatesByGroupRelevance() const;

  /// Candidate index of an item id, or -1.
  int32_t CandidateIndexOf(ItemId item) const;

  /// True iff candidate `candidate_index` is in member `member_index`'s A_u.
  bool InMemberTopK(int32_t member_index, int32_t candidate_index) const;

  /// The A_u list of a member (descending relevance, ties ascending item id).
  const std::vector<ScoredItem>& MemberTopK(int32_t member_index) const;

  /// The best relevance any candidate offers the member — the head of its
  /// A_u, hence the column maximum — or nullopt when no candidate's
  /// relevance is defined for it. The denominator of normalized satisfaction.
  std::optional<double> BestRelevance(int32_t member_index) const;

 private:
  void RebuildTopKSets();

  Group members_;
  GroupContextOptions options_;
  std::vector<ItemId> items_;            // ascending
  std::vector<double> group_relevance_;  // per candidate
  // relevance_[candidate * group_size() + member]; NaN = undefined.
  std::vector<double> relevance_;
  std::vector<std::vector<ScoredItem>> top_k_;  // per member: A_u
  // top_k_flags_[candidate * group_size() + member]: candidate in A_u?
  std::vector<uint8_t> top_k_flags_;
};

}  // namespace fairrec

#endif  // FAIRREC_CORE_GROUP_CONTEXT_H_
