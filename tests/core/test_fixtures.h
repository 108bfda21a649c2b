#ifndef FAIRREC_TESTS_CORE_TEST_FIXTURES_H_
#define FAIRREC_TESTS_CORE_TEST_FIXTURES_H_

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/fairness.h"
#include "core/group_context.h"
#include "core/selector.h"

namespace fairrec {
namespace testing_fixtures {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Builds per-member relevance tables from a dense score grid:
/// scores[member][item], NaN marking "undefined for this member".
inline std::vector<MemberRelevance> MembersFromDense(
    const std::vector<std::vector<double>>& scores) {
  std::vector<MemberRelevance> members;
  for (size_t m = 0; m < scores.size(); ++m) {
    MemberRelevance member;
    member.user = static_cast<UserId>(m);
    for (size_t i = 0; i < scores[m].size(); ++i) {
      if (!std::isnan(scores[m][i])) {
        member.relevance.push_back({static_cast<ItemId>(i), scores[m][i]});
      }
    }
    members.push_back(std::move(member));
  }
  return members;
}

/// One-call context construction from a dense grid.
inline GroupContext ContextFromDense(
    const std::vector<std::vector<double>>& scores,
    GroupContextOptions options = {}) {
  return std::move(GroupContext::Build(MembersFromDense(scores), options))
      .ValueOrDie();
}

/// A random fully-defined instance for property tests: every member scores
/// every item in [1, 5].
inline GroupContext RandomContext(Rng& rng, int32_t num_members,
                                  int32_t num_items,
                                  GroupContextOptions options = {}) {
  std::vector<std::vector<double>> scores(
      static_cast<size_t>(num_members),
      std::vector<double>(static_cast<size_t>(num_items), 0.0));
  for (auto& row : scores) {
    for (double& s : row) s = rng.UniformReal(1.0, 5.0);
  }
  return ContextFromDense(scores, options);
}

/// Reference brute force: plain recursive enumeration in lexicographic order,
/// strict-improvement maximum (the same deterministic winner the optimized
/// enumerator must report).
inline Selection NaiveBruteForce(const GroupContext& context, int32_t z) {
  const int32_t m = context.num_candidates();
  std::vector<int32_t> best;
  double best_value = -1.0;
  std::vector<int32_t> combo;
  auto recurse = [&](auto&& self, int32_t next) -> void {
    if (static_cast<int32_t>(combo.size()) == std::min(z, m)) {
      const ValueBreakdown score = EvaluateSelection(context, combo);
      if (score.value > best_value) {
        best_value = score.value;
        best = combo;
      }
      return;
    }
    for (int32_t c = next; c < m; ++c) {
      combo.push_back(c);
      self(self, c + 1);
      combo.pop_back();
    }
  };
  recurse(recurse, 0);
  Selection out;
  out.score = EvaluateSelection(context, best);
  for (const int32_t c : best) out.items.push_back(context.candidate(c).item);
  return out;
}

}  // namespace testing_fixtures
}  // namespace fairrec

#endif  // FAIRREC_TESTS_CORE_TEST_FIXTURES_H_
