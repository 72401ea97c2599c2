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

/// The key-ordered row store behind QueryResult and ApproximateResult. A
/// result keeps its rows in one vector and no key index: Add appends, and
/// the result tracks whether its keys are strictly increasing and free of
/// NaN. While they are, Find binary-searches. Otherwise Find scans and
/// returns the first row whose key compares equal — the row a hash index
/// built in row order returned, so a NaN key is never found and of two
/// equal keys (such as 0.0 and -0.0) the earlier row wins.
namespace result_rows {

/// False when `key` holds a NaN, which compares unordered under
/// GroupKey's operator< and so ends any binary-searchable run.
bool Orderable(const GroupKey& key);

/// Whether appending a row keyed `next` keeps `rows` binary-searchable.
template <typename Row>
bool Extends(const std::vector<Row>& rows, const GroupKey& next) {
  return Orderable(next) && (rows.empty() || rows.back().key < next);
}

template <typename Row>
bool Searchable(const std::vector<Row>& rows) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!Orderable(rows[i].key)) return false;
    if (i > 0 && !(rows[i - 1].key < rows[i].key)) return false;
  }
  return true;
}

template <typename Row>
const Row* Find(const std::vector<Row>& rows, bool searchable,
                const GroupKey& key) {
  if (searchable) {
    auto it = std::lower_bound(
        rows.begin(), rows.end(), key,
        [](const Row& row, const GroupKey& k) { return row.key < k; });
    return it != rows.end() && it->key == key ? &*it : nullptr;
  }
  for (const Row& row : rows) {
    if (row.key == key) return &row;
  }
  return nullptr;
}

/// Sorts `rows` by key unless they are already a searchable run, which a
/// sort would leave unchanged. Returns whether the result is searchable.
template <typename Row>
bool SortByKey(std::vector<Row>* rows, bool searchable) {
  if (searchable) return true;
  std::sort(rows->begin(), rows->end(),
            [](const Row& a, const Row& b) { return a.key < b.key; });
  return Searchable(*rows);
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

  size_t num_groups() const { return rows_.size(); }
  const std::vector<GroupResult>& rows() const { return rows_; }

  /// Pointer to the row for `key`, or nullptr if that group is absent.
  const GroupResult* Find(const GroupKey& key) const;

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
  std::vector<GroupResult> rows_;
  /// Keys strictly increasing and NaN-free (result_rows::Searchable).
  bool searchable_ = true;
};

}  // namespace congress

#endif  // CONGRESS_ENGINE_QUERY_H_
