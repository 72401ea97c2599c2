#ifndef CONGRESS_ENGINE_QUERY_H_
#define CONGRESS_ENGINE_QUERY_H_

#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
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

/// Where one output group's numbers came from. Pure sampled estimates
/// are the default; exact scans mark their groups exact, and the
/// planner's combined plans mark groups stitched from both an exact part
/// and a sampled tail.
enum class GroupProvenance : uint8_t {
  kSampled = 0,   ///< Stratified expansion estimate with error bounds.
  kExact = 1,     ///< Exact aggregation; zero-width bounds.
  kCombined = 2,  ///< Exact outlier part + sampled tail, stitched.
};

const char* GroupProvenanceToString(GroupProvenance provenance);

/// One output group of an answer, viewed in place inside its
/// ApproximateResult: the group's key, the estimates plus, per aggregate,
/// the standard error and the half-width error bound at the configured
/// confidence. A view stays valid until its result is next modified,
/// moved or destroyed.
struct ApproximateGroupRow {
  std::span<const Value> key;
  std::span<const double> estimates;
  std::span<const double> std_errors;
  std::span<const double> bounds;
  uint64_t support = 0;  ///< Sample tuples contributing to this group.
  GroupProvenance provenance = GroupProvenance::kSampled;
};

/// A group-by answer: per group, estimates with error bounds. It is the
/// one answer type, as Aqua's answers are. An exact answer (ExecuteExact,
/// ExactRollups) is the case whose groups carry zero standard errors and
/// bounds, support 0 and GroupProvenance::kExact; the rewrite plans and
/// the summary synopses give kSampled groups with zero bounds.
///
/// Every group carries key_width() key values and num_aggregates()
/// aggregates, so the answer is stored flat, in row order and with no key
/// index: one array of keys (key_width() values per group), one array of
/// numbers holding each group's estimates, then its standard errors, then
/// its bounds (3 * num_aggregates() doubles per group, the order they take
/// on the wire), and one support and one provenance per group. An answer
/// thus costs a constant number of allocations however many groups it
/// has.
///
/// Add tracks whether the keys are strictly increasing and free of NaN.
/// While they are, Find binary-searches. Otherwise Find scans and returns
/// the first group whose key compares equal — the group a hash index
/// built in row order returned, so a NaN key is never found and of two
/// equal keys (such as 0.0 and -0.0) the earlier group wins.
class ApproximateResult {
 public:
  ApproximateResult() = default;
  /// An empty answer whose groups have `key_width` key values and
  /// `num_aggregates` aggregates each.
  ApproximateResult(size_t key_width, size_t num_aggregates)
      : key_width_(key_width), num_aggs_(num_aggregates) {}

  size_t key_width() const { return key_width_; }
  size_t num_aggregates() const { return num_aggs_; }
  size_t num_groups() const { return support_.size(); }

  /// Makes room for `num_groups` groups in total.
  void Reserve(size_t num_groups);

  /// Appends a group keyed `key` (key_width() values, not a view into
  /// this answer) and returns its 3 * num_aggregates() numbers, zeroed,
  /// for the caller to fill: estimates, then standard errors, then
  /// bounds. The span is valid until the next modification of the answer.
  std::span<double> Add(std::span<const Value> key, uint64_t support,
                        GroupProvenance provenance);

  /// The view of group `i` (0 <= i < num_groups()).
  ApproximateGroupRow row(size_t i) const {
    const double* numbers = numbers_.data() + i * 3 * num_aggs_;
    ApproximateGroupRow view;
    view.key = KeyOf(i);
    view.estimates = {numbers, num_aggs_};
    view.std_errors = {numbers + num_aggs_, num_aggs_};
    view.bounds = {numbers + 2 * num_aggs_, num_aggs_};
    view.support = support_[i];
    view.provenance = provenance_[i];
    return view;
  }
  /// Group `i`'s estimates, standard errors and bounds, contiguous in
  /// that order.
  std::span<const double> row_numbers(size_t i) const {
    return {numbers_.data() + i * 3 * num_aggs_, 3 * num_aggs_};
  }
  std::span<double> row_numbers(size_t i) {
    return {numbers_.data() + i * 3 * num_aggs_, 3 * num_aggs_};
  }
  /// Every group's view, in row order: a random-access range valid while
  /// the answer is unmodified.
  auto rows() const {
    return std::views::iota(size_t{0}, num_groups()) |
           std::views::transform([this](size_t i) { return row(i); });
  }

  /// The first group whose key equals `key`, or nullopt.
  std::optional<ApproximateGroupRow> Find(std::span<const Value> key) const;
  std::optional<ApproximateGroupRow> Find(const GroupKey& key) const {
    return Find(std::span<const Value>(key));
  }
  /// Keys strictly increasing and NaN-free, so Find binary-searches and
  /// two such answers can be merged by key.
  bool searchable() const { return searchable_; }
  /// Sorts the groups by key unless they are already searchable.
  void SortByKey();

  /// Drops groups whose estimates fail any HAVING condition, keeping the
  /// survivors' order (for a sampled answer, an approximate HAVING:
  /// groups near the threshold may be mis-kept or mis-dropped, with
  /// likelihood governed by the group's bound). No-op when `having` is
  /// empty.
  void FilterHaving(const std::vector<HavingCondition>& having);

  /// Multiplies every standard error and bound by `factor`, in place.
  void WidenBounds(double factor);

  std::string ToString(size_t max_rows = 20) const;

 private:
  std::span<const Value> KeyOf(size_t i) const {
    return {keys_.data() + i * key_width_, key_width_};
  }
  /// Whether the keys are strictly increasing and NaN-free.
  bool KeysSearchable() const;

  size_t key_width_ = 0;
  size_t num_aggs_ = 0;
  std::vector<Value> keys_;      // num_groups() x key_width_.
  std::vector<double> numbers_;  // num_groups() x 3 * num_aggs_.
  std::vector<uint64_t> support_;
  std::vector<GroupProvenance> provenance_;
  /// Keys strictly increasing and NaN-free (KeysSearchable).
  bool searchable_ = true;
};

}  // namespace congress

#endif  // CONGRESS_ENGINE_QUERY_H_
