#include "core/selector_registry.h"

#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/brute_force.h"
#include "core/envy_swap_selector.h"
#include "core/fair_package_selector.h"
#include "core/fairness_heuristic.h"
#include "core/greedy_selector.h"
#include "core/least_misery_selector.h"
#include "core/local_search.h"

namespace fairrec {

// ---------------------------------------------------------------------------
// SelectorOptionBag
// ---------------------------------------------------------------------------

Result<SelectorOptionBag> SelectorOptionBag::Parse(std::string_view spec) {
  SelectorOptionBag bag;
  if (Trim(spec).empty()) return bag;
  for (const std::string& entry : Split(spec, ',')) {
    const std::string_view trimmed = Trim(entry);
    if (trimmed.empty()) continue;
    const size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("malformed selector option '" +
                                     std::string(trimmed) +
                                     "' (expected key=value)");
    }
    const std::string key(Trim(trimmed.substr(0, eq)));
    const std::string value(Trim(trimmed.substr(eq + 1)));
    if (!bag.values_.emplace(key, value).second) {
      return Status::InvalidArgument("duplicate selector option '" + key + "'");
    }
  }
  return bag;
}

Result<int64_t> SelectorOptionBag::GetInt(const std::string& key,
                                          int64_t default_value) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  consumed_[key] = true;
  const Result<int64_t> parsed = ParseInt64(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("selector option " + key + "='" +
                                   it->second + "' is not an integer");
  }
  return parsed;
}

Result<double> SelectorOptionBag::GetDouble(const std::string& key,
                                            double default_value) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  consumed_[key] = true;
  const Result<double> parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("selector option " + key + "='" +
                                   it->second + "' is not a number");
  }
  return parsed;
}

Result<bool> SelectorOptionBag::GetBool(const std::string& key,
                                        bool default_value) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  consumed_[key] = true;
  const std::string lowered = ToLower(it->second);
  if (lowered == "true" || lowered == "1") return true;
  if (lowered == "false" || lowered == "0") return false;
  return Status::InvalidArgument("selector option " + key + "='" + it->second +
                                 "' is not a bool (true/false/1/0)");
}

std::string SelectorOptionBag::GetString(const std::string& key,
                                         std::string default_value) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  consumed_[key] = true;
  return it->second;
}

std::vector<std::string> SelectorOptionBag::UnconsumedKeys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    const auto it = consumed_.find(key);
    if (it == consumed_.end() || !it->second) out.push_back(key);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Built-in registrations
// ---------------------------------------------------------------------------

namespace {

Result<FairnessHeuristicOptions> Algorithm1Options(
    const SelectorOptionBag& options) {
  FairnessHeuristicOptions out;
  FAIRREC_ASSIGN_OR_RETURN(out.pick_from_a_ux,
                           options.GetBool("pick_from_a_ux", out.pick_from_a_ux));
  FAIRREC_ASSIGN_OR_RETURN(out.fill_shortfall,
                           options.GetBool("fill_shortfall", out.fill_shortfall));
  return out;
}

void RegisterBuiltins(SelectorRegistry& registry) {
  auto must = [](Status status) { FAIRREC_CHECK(status.ok()); };

  must(registry.Register(
      {"algorithm1",
       "the paper's Algorithm 1: round-robin over member pairs, each pick "
       "the best unpicked A_u item",
       "value(G, D) = fairness(G, D) * sum relevanceG, heuristically",
       {"pick_from_a_ux (bool, false)", "fill_shortfall (bool, true)"},
       {}},
      [](const SelectorOptionBag& options)
          -> Result<std::unique_ptr<ItemSetSelector>> {
        FAIRREC_ASSIGN_OR_RETURN(const FairnessHeuristicOptions parsed,
                                 Algorithm1Options(options));
        return std::unique_ptr<ItemSetSelector>(
            std::make_unique<FairnessHeuristic>(parsed));
      }));

  must(registry.Register(
      {"greedy-value",
       "greedy marginal-value baseline: always add the item with the "
       "largest value(G, D) increase",
       "value(G, D), greedily",
       {},
       {"greedy"}},
      [](const SelectorOptionBag&) -> Result<std::unique_ptr<ItemSetSelector>> {
        return std::unique_ptr<ItemSetSelector>(
            std::make_unique<GreedyValueSelector>());
      }));

  must(registry.Register(
      {"local-search",
       "swap hill-climbing on value(G, D), seeded from Algorithm 1",
       "value(G, D), via best-improvement single swaps",
       {"max_swaps (int, 1000)", "seed_with_algorithm1 (bool, true)",
        "pick_from_a_ux (bool, false)", "fill_shortfall (bool, true)"},
       {"localsearch"}},
      [](const SelectorOptionBag& options)
          -> Result<std::unique_ptr<ItemSetSelector>> {
        LocalSearchOptions parsed;
        FAIRREC_ASSIGN_OR_RETURN(
            int64_t max_swaps, options.GetInt("max_swaps", parsed.max_swaps));
        parsed.max_swaps = static_cast<int32_t>(max_swaps);
        FAIRREC_ASSIGN_OR_RETURN(
            parsed.seed_with_algorithm1,
            options.GetBool("seed_with_algorithm1",
                            parsed.seed_with_algorithm1));
        FAIRREC_ASSIGN_OR_RETURN(parsed.heuristic, Algorithm1Options(options));
        return std::unique_ptr<ItemSetSelector>(
            std::make_unique<LocalSearchSelector>(parsed));
      }));

  must(registry.Register(
      {"brute-force",
       "exact §III-D optimum: enumerate all C(m, z) subsets",
       "value(G, D), exactly",
       {"max_combinations (int, 0 = unlimited)"},
       {"bruteforce"}},
      [](const SelectorOptionBag& options)
          -> Result<std::unique_ptr<ItemSetSelector>> {
        BruteForceOptions parsed;
        FAIRREC_ASSIGN_OR_RETURN(
            int64_t cap,
            options.GetInt("max_combinations",
                           static_cast<int64_t>(parsed.max_combinations)));
        if (cap < 0) {
          return Status::InvalidArgument("max_combinations must be >= 0");
        }
        parsed.max_combinations = static_cast<uint64_t>(cap);
        return std::unique_ptr<ItemSetSelector>(
            std::make_unique<BruteForceSelector>(parsed));
      }));

  must(registry.Register(
      {"least-misery",
       "grow D maximizing the worst-off member's relevance mass "
       "(individual fairness, after Rampisela et al.)",
       "max min_u sum_{i in D} relevance(u, i), greedily",
       {},
       {"leastmisery"}},
      [](const SelectorOptionBag&) -> Result<std::unique_ptr<ItemSetSelector>> {
        return std::unique_ptr<ItemSetSelector>(
            std::make_unique<LeastMiserySelector>());
      }));

  must(registry.Register(
      {"envy-swap",
       "swap local search minimizing total pairwise envy over normalized "
       "member satisfaction (after Pellegrini et al.)",
       "min sum_{u != v} max(0, s_v - s_u), then max value(G, D)",
       {"max_swaps (int, 1000)"},
       {"envyswap"}},
      [](const SelectorOptionBag& options)
          -> Result<std::unique_ptr<ItemSetSelector>> {
        EnvySwapOptions parsed;
        FAIRREC_ASSIGN_OR_RETURN(
            int64_t max_swaps, options.GetInt("max_swaps", parsed.max_swaps));
        parsed.max_swaps = static_cast<int32_t>(max_swaps);
        return std::unique_ptr<ItemSetSelector>(
            std::make_unique<EnvySwapSelector>(parsed));
      }));

  must(registry.Register(
      {"fair-package",
       "pruned enumeration for the most relevant package giving every "
       "member >= min_per_member of their A_u items (after Sato)",
       "max (#members at quota, sum relevanceG), exactly up to max_nodes",
       {"min_per_member (int, 1)", "max_nodes (int, 2000000)"},
       {"fairpackage"}},
      [](const SelectorOptionBag& options)
          -> Result<std::unique_ptr<ItemSetSelector>> {
        FairPackageOptions parsed;
        FAIRREC_ASSIGN_OR_RETURN(
            int64_t quota,
            options.GetInt("min_per_member", parsed.min_per_member));
        parsed.min_per_member = static_cast<int32_t>(quota);
        FAIRREC_ASSIGN_OR_RETURN(parsed.max_nodes,
                                 options.GetInt("max_nodes", parsed.max_nodes));
        if (parsed.min_per_member <= 0 || parsed.max_nodes <= 0) {
          return Status::InvalidArgument(
              "min_per_member and max_nodes must be positive");
        }
        return std::unique_ptr<ItemSetSelector>(
            std::make_unique<FairPackageSelector>(parsed));
      }));
}

}  // namespace

// ---------------------------------------------------------------------------
// SelectorRegistry
// ---------------------------------------------------------------------------

SelectorRegistry& SelectorRegistry::Global() {
  static SelectorRegistry* instance = [] {
    auto* registry = new SelectorRegistry();
    RegisterBuiltins(*registry);
    return registry;
  }();
  return *instance;
}

Status SelectorRegistry::Register(SelectorInfo info, Factory factory) {
  if (info.name.empty()) {
    return Status::InvalidArgument("selector name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(info.name) != 0 || aliases_.count(info.name) != 0) {
    return Status::AlreadyExists("selector '" + info.name +
                                 "' is already registered");
  }
  for (const std::string& alias : info.aliases) {
    if (entries_.count(alias) != 0 || aliases_.count(alias) != 0) {
      return Status::AlreadyExists("selector alias '" + alias +
                                   "' is already registered");
    }
  }
  for (const std::string& alias : info.aliases) {
    aliases_.emplace(alias, info.name);
  }
  const std::string name = info.name;
  entries_.emplace(name, Entry{std::move(info), std::move(factory)});
  return Status::OK();
}

const SelectorRegistry::Entry* SelectorRegistry::Find(
    std::string_view name) const {
  auto it = entries_.find(name);
  if (it != entries_.end()) return &it->second;
  const auto alias = aliases_.find(name);
  if (alias != aliases_.end()) {
    it = entries_.find(alias->second);
    if (it != entries_.end()) return &it->second;
  }
  return nullptr;
}

Result<std::unique_ptr<ItemSetSelector>> SelectorRegistry::Create(
    std::string_view name, const SelectorOptionBag& options) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const Entry* entry = Find(name);
    if (entry == nullptr) {
      return Status::InvalidArgument("unknown selector: " + std::string(name));
    }
    factory = entry->factory;
  }
  FAIRREC_ASSIGN_OR_RETURN(std::unique_ptr<ItemSetSelector> selector,
                           factory(options));
  const std::vector<std::string> leftover = options.UnconsumedKeys();
  if (!leftover.empty()) {
    std::string keys;
    for (const std::string& key : leftover) {
      if (!keys.empty()) keys += ", ";
      keys += key;
    }
    return Status::InvalidArgument("selector '" + std::string(name) +
                                   "' does not accept option(s): " + keys);
  }
  return selector;
}

Result<std::unique_ptr<ItemSetSelector>> SelectorRegistry::CreateFromSpec(
    std::string_view spec) const {
  const std::string_view trimmed = Trim(spec);
  const size_t colon = trimmed.find(':');
  const std::string_view name =
      colon == std::string_view::npos ? trimmed : trimmed.substr(0, colon);
  if (name.empty()) {
    return Status::InvalidArgument("empty selector spec");
  }
  SelectorOptionBag options;
  if (colon != std::string_view::npos) {
    FAIRREC_ASSIGN_OR_RETURN(options,
                             SelectorOptionBag::Parse(trimmed.substr(colon + 1)));
  }
  return Create(name, options);
}

bool SelectorRegistry::Has(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Find(name) != nullptr;
}

Result<SelectorInfo> SelectorRegistry::Describe(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry* entry = Find(name);
  if (entry == nullptr) {
    return Status::InvalidArgument("unknown selector: " + std::string(name));
  }
  return entry->info;
}

std::vector<SelectorInfo> SelectorRegistry::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SelectorInfo> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(entry.info);
  return out;
}

std::vector<std::string> SelectorRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

}  // namespace fairrec
