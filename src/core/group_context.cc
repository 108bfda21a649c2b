#include "core/group_context.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "cf/top_k.h"

namespace fairrec {

namespace {

constexpr double kUndefined = std::numeric_limits<double>::quiet_NaN();

bool IsDefined(double v) { return !std::isnan(v); }

}  // namespace

Result<GroupContext> GroupContext::Build(
    const std::vector<MemberRelevance>& members, GroupContextOptions options) {
  if (members.empty()) {
    return Status::InvalidArgument("group context needs >= 1 member");
  }
  if (options.top_k <= 0) {
    return Status::InvalidArgument("top_k must be positive");
  }
  ItemId max_item = -1;
  for (const MemberRelevance& m : members) {
    ItemId previous = -1;
    for (const ScoredItem& s : m.relevance) {
      if (s.item <= previous) {
        return Status::InvalidArgument(
            "member relevance lists must be strictly ascending by "
            "non-negative item id");
      }
      previous = s.item;
    }
    max_item = std::max(max_item, previous);
  }

  GroupContext ctx;
  ctx.options_ = options;
  for (const MemberRelevance& m : members) ctx.members_.push_back(m.user);
  const size_t n = members.size();

  // Item ids are dense, so one item-indexed array first counts each item's
  // defined scores and then maps the item to its candidate row (-1: none).
  std::vector<int32_t> row_of(static_cast<size_t>(max_item) + 1, 0);
  for (const MemberRelevance& m : members) {
    for (const ScoredItem& s : m.relevance) {
      if (IsDefined(s.score)) ++row_of[static_cast<size_t>(s.item)];
    }
  }
  const int32_t needed =
      options.require_all_members ? static_cast<int32_t>(n) : 1;
  for (size_t item = 0; item < row_of.size(); ++item) {
    if (row_of[item] < needed) {
      row_of[item] = -1;
      continue;
    }
    row_of[item] = ctx.num_candidates();
    ctx.items_.push_back(static_cast<ItemId>(item));
  }

  // Scatter the scores into the rows, then aggregate each row over its
  // defined scores in member order (Def. 2).
  const size_t rows = ctx.items_.size();
  ctx.relevance_.assign(rows * n, kUndefined);
  for (size_t m = 0; m < n; ++m) {
    for (const ScoredItem& s : members[m].relevance) {
      const int32_t row = row_of[static_cast<size_t>(s.item)];
      if (row >= 0) ctx.relevance_[static_cast<size_t>(row) * n + m] = s.score;
    }
  }
  // Both compactions below write every score and advance only past the
  // defined ones: no branch on the (irregular) defined pattern.
  ctx.group_relevance_.reserve(rows);
  std::vector<double> defined(n);
  for (size_t row = 0; row < rows; ++row) {
    size_t count = 0;
    for (size_t m = 0; m < n; ++m) {
      defined[count] = ctx.relevance_[row * n + m];
      count += IsDefined(defined[count]) ? 1 : 0;
    }
    ctx.group_relevance_.push_back(
        Aggregate(std::span<const double>(defined.data(), count),
                  options.aggregation, options.aggregation_params));
  }

  ctx.RebuildTopKSets();
  return ctx;
}

void GroupContext::RebuildTopKSets() {
  const size_t n = members_.size();
  const size_t rows = items_.size();
  top_k_.assign(n, {});
  top_k_flags_.assign(rows * n, 0);
  std::vector<ScoredItem> defined(rows);
  for (size_t m = 0; m < n; ++m) {
    size_t count = 0;
    for (size_t row = 0; row < rows; ++row) {
      defined[count] = {items_[row], relevance_[row * n + m]};
      count += IsDefined(defined[count].score) ? 1 : 0;
    }
    top_k_[m] = SelectTopK(std::span<const ScoredItem>(defined.data(), count),
                           options_.top_k);
    for (const ScoredItem& s : top_k_[m]) {
      const int32_t index = CandidateIndexOf(s.item);
      FAIRREC_DCHECK(index >= 0);
      top_k_flags_[static_cast<size_t>(index) * n + m] = 1;
    }
  }
}

std::vector<int32_t> GroupContext::CandidatesByGroupRelevance() const {
  std::vector<int32_t> order(items_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](int32_t a, int32_t b) {
    const double ga = group_relevance_[static_cast<size_t>(a)];
    const double gb = group_relevance_[static_cast<size_t>(b)];
    if (ga != gb) return ga > gb;
    return items_[static_cast<size_t>(a)] < items_[static_cast<size_t>(b)];
  });
  return order;
}

GroupContext GroupContext::RestrictToTopM(int32_t m) const {
  if (m >= num_candidates()) return *this;
  std::vector<int32_t> order = CandidatesByGroupRelevance();
  order.resize(static_cast<size_t>(std::max(m, 0)));
  std::sort(order.begin(), order.end());  // restore ascending item id order

  GroupContext out;
  out.members_ = members_;
  out.options_ = options_;
  for (const int32_t index : order) {
    const GroupCandidate row = candidate(index);
    out.items_.push_back(row.item);
    out.group_relevance_.push_back(row.group_relevance);
    out.relevance_.insert(out.relevance_.end(), row.member_relevance.begin(),
                          row.member_relevance.end());
  }
  out.RebuildTopKSets();
  return out;
}

int32_t GroupContext::CandidateIndexOf(ItemId item) const {
  const auto it = std::lower_bound(items_.begin(), items_.end(), item);
  if (it == items_.end() || *it != item) return -1;
  return static_cast<int32_t>(it - items_.begin());
}

bool GroupContext::InMemberTopK(int32_t member_index,
                                int32_t candidate_index) const {
  FAIRREC_DCHECK(member_index >= 0 && member_index < group_size());
  FAIRREC_DCHECK(candidate_index >= 0 && candidate_index < num_candidates());
  return top_k_flags_[static_cast<size_t>(candidate_index) * members_.size() +
                      static_cast<size_t>(member_index)] != 0;
}

const std::vector<ScoredItem>& GroupContext::MemberTopK(
    int32_t member_index) const {
  FAIRREC_DCHECK(member_index >= 0 && member_index < group_size());
  return top_k_[static_cast<size_t>(member_index)];
}

std::optional<double> GroupContext::BestRelevance(int32_t member_index) const {
  const std::vector<ScoredItem>& a_u = MemberTopK(member_index);
  if (a_u.empty()) return std::nullopt;
  return a_u.front().score;
}

}  // namespace fairrec
