#ifndef CONGRESS_ENGINE_QUERY_H_
#define CONGRESS_ENGINE_QUERY_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "engine/aggregate.h"
#include "engine/predicate.h"
#include "storage/value.h"
#include "util/status.h"

namespace congress {

/// One HAVING conjunct: a comparison on the value of one of the query's
/// aggregates (by position in the SELECT list). The paper's census
/// motivation — "identify all states with per capita incomes above some
/// value" — is a HAVING filter over an AVG.
struct HavingCondition {
  size_t aggregate_index = 0;
  CompareOp op = CompareOp::kGt;
  double value = 0.0;

  bool Matches(double aggregate_value) const;
  std::string ToString() const;
};

/// An accuracy or latency contract attached to a query. Exactly one of
/// the two budget kinds is active at a time:
///   - error budget: `WITHIN <pct>% CONFIDENCE <pct>` asks that every
///     reported group's half-width be at most `relative_error` of the
///     estimate at the stated confidence level;
///   - time budget: `WITHIN <ms> MS` asks the planner to pick the most
///     accurate strategy predicted to answer inside the deadline.
struct QueryBudget {
  /// Target relative half-width in (0, 1); 0 means "no error budget".
  double relative_error = 0.0;
  /// Confidence level in (0, 1) the half-width must hold at.
  double confidence = 0.0;
  /// Time budget in milliseconds; 0 means "no time budget".
  double time_budget_ms = 0.0;

  bool has_error_budget() const { return relative_error > 0.0; }
  bool has_time_budget() const { return time_budget_ms > 0.0; }
  bool active() const { return has_error_budget() || has_time_budget(); }

  std::string ToString() const;
};

/// A logical group-by aggregate query:
///   SELECT <group_columns>, <aggregates> FROM t
///   WHERE <predicate> GROUP BY <group_columns> HAVING <having...>
/// An empty `group_columns` is the no-group-by case (one global group),
/// which the paper treats as a group-by query returning a single group.
struct GroupByQuery {
  std::vector<size_t> group_columns;
  std::vector<AggregateSpec> aggregates;
  PredicatePtr predicate;  // nullptr means TRUE.
  std::vector<HavingCondition> having;  // Conjunction; empty means TRUE.
  QueryBudget budget;  // Inactive by default; set by WITHIN clauses.

  bool HasPredicate() const { return predicate != nullptr; }

  std::string ToString() const;
};

/// True when `values` (one per SELECT-list aggregate) pass every HAVING
/// conjunct; a condition naming a missing aggregate fails.
bool PassesHaving(const std::vector<HavingCondition>& having,
                  const double* values, size_t num_values);

/// The lookup rules QueryResult and ApproximateResult share. A result
/// keeps its rows in row order with no key index: Add appends, and the
/// result tracks whether its keys are strictly increasing and free of
/// NaN. While they are, Find binary-searches. Otherwise Find scans and
/// returns the first row whose key compares equal — the row a hash index
/// built in row order returned, so a NaN key is never found and of two
/// equal keys (such as 0.0 and -0.0) the earlier row wins. Each helper
/// reads the keys of rows 0..n-1 through `key_at(i)`.
namespace result_rows {

/// False when `key` holds a NaN, which compares unordered under
/// GroupKey's operator< and so ends any binary-searchable run.
bool Orderable(std::span<const Value> key);

template <typename KeyAt>
bool Searchable(size_t n, const KeyAt& key_at) {
  for (size_t i = 0; i < n; ++i) {
    if (!Orderable(key_at(i))) return false;
    if (i > 0 && !KeyLess(key_at(i - 1), key_at(i))) return false;
  }
  return true;
}

/// The row whose key equals `key` under the rules above, or n.
template <typename KeyAt>
size_t Find(size_t n, bool searchable, const KeyAt& key_at,
            std::span<const Value> key) {
  if (searchable) {
    size_t lo = 0;
    size_t hi = n;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (KeyLess(key_at(mid), key)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < n && KeyEqual(key_at(lo), key) ? lo : n;
  }
  for (size_t i = 0; i < n; ++i) {
    if (KeyEqual(key_at(i), key)) return i;
  }
  return n;
}

/// The rows in key order: the permutation std::sort gives the rows
/// themselves, since it compares and moves indices exactly as it would
/// the rows they stand for.
template <typename KeyAt>
std::vector<size_t> SortedOrder(size_t n, const KeyAt& key_at) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&key_at](size_t a, size_t b) {
    return KeyLess(key_at(a), key_at(b));
  });
  return order;
}

}  // namespace result_rows

/// The aggregate row for one group in a query answer.
struct GroupResult {
  GroupKey key;
  std::vector<double> aggregates;  // One per AggregateSpec, query order.
};

/// A group-by query answer: one GroupResult per non-empty group.
/// Deterministically ordered by key (after SortByKey) so results are
/// comparable across runs; lookups by key binary-search a key-ordered
/// answer (see result_rows).
class QueryResult {
 public:
  QueryResult() = default;

  /// Appends a group row. Keys must be unique.
  void Add(GroupKey key, std::vector<double> aggregates);

  /// Reserves room for `num_groups` rows.
  void Reserve(size_t num_groups) { rows_.reserve(num_groups); }

  size_t num_groups() const { return rows_.size(); }
  const std::vector<GroupResult>& rows() const { return rows_; }

  /// Pointer to the row for `key`, or nullptr if that group is absent.
  const GroupResult* Find(std::span<const Value> key) const;
  const GroupResult* Find(const GroupKey& key) const {
    return Find(std::span<const Value>(key));
  }

  /// Whether the keys are strictly increasing and NaN-free, so Find
  /// binary-searches and two such answers can be merged by key.
  bool searchable() const { return searchable_; }

  /// Sorts rows by group key; call once after all Adds for deterministic
  /// iteration order.
  void SortByKey();

  /// Drops every group failing any of the query's HAVING conditions,
  /// keeping the survivors' order. No-op when `having` is empty.
  void FilterHaving(const std::vector<HavingCondition>& having);

  std::string ToString(size_t max_rows = 20) const;

 private:
  /// Row i's key, for the result_rows helpers.
  auto KeyAt() const {
    return [this](size_t i) -> const GroupKey& { return rows_[i].key; };
  }

  std::vector<GroupResult> rows_;
  /// Keys strictly increasing and NaN-free (result_rows::Searchable).
  bool searchable_ = true;
};

}  // namespace congress

#endif  // CONGRESS_ENGINE_QUERY_H_
