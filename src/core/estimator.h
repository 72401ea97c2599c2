#ifndef CONGRESS_CORE_ESTIMATOR_H_
#define CONGRESS_CORE_ESTIMATOR_H_

#include <cmath>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "engine/query.h"
#include "sampling/moments.h"
#include "sampling/stratified_sample.h"
#include "util/parallel.h"
#include "util/status.h"

namespace congress {

/// How the per-group error bound is derived from the estimator variance
/// (Aqua supports Hoeffding and Chebyshev bounds; the standard error is
/// exposed for analysis).
enum class BoundMethod {
  kStandardError = 0,  ///< Half-width = 1 standard error (~68% normal).
  kChebyshev = 1,      ///< Half-width = stderr / sqrt(1 - confidence).
  kHoeffding = 2,      ///< Distribution-free; needs a value range, so it
                       ///< falls back to Chebyshev for AVG.
};

const char* BoundMethodToString(BoundMethod method);

/// The half-width of a §5 error bound at one confidence, from an
/// estimate's standard error and, for Hoeffding, the sum Σc² of its
/// squared per-draw ranges. Without a range (`has_range` false: AVG)
/// Hoeffding falls back to Chebyshev. The estimator and the planner's
/// error model both bound through it.
class BoundHalfWidth {
 public:
  BoundHalfWidth(BoundMethod method, double confidence);

  double operator()(double std_err, bool has_range, double hoeff_c2) const {
    switch (method_) {
      case BoundMethod::kStandardError:
        return std_err;
      case BoundMethod::kChebyshev:
        return cheb_ * std_err;
      case BoundMethod::kHoeffding:
        return has_range ? std::sqrt(hoeff_ln_ * hoeff_c2) : cheb_ * std_err;
    }
    return 0.0;
  }

 private:
  BoundMethod method_;
  double cheb_;      ///< 1 / sqrt(1 - confidence), the gap floored at 1e-6.
  double hoeff_ln_;  ///< ln(2 / (1 - confidence)) / 2.
};

/// Options controlling approximate answers.
struct EstimatorOptions {
  double confidence = 0.90;  ///< Aqua's default confidence level.
  BoundMethod bound_method = BoundMethod::kChebyshev;
  /// Strata (indices into sample.strata()) whose rows are skipped
  /// entirely — the planner's combined plans answer these outlier strata
  /// exactly and take only the tail from the sample. Empty (the default)
  /// estimates over the full sample, bit-identically to builds that
  /// predate this option.
  std::vector<uint32_t> excluded_strata;
};

/// Where one output group's numbers came from. Pure sampled estimates
/// are the default; the planner's combined plans mark groups answered
/// exactly (outlier strata, or exact fallback) and groups stitched from
/// both an exact part and a sampled tail.
enum class GroupProvenance : uint8_t {
  kSampled = 0,   ///< Stratified expansion estimate with error bounds.
  kExact = 1,     ///< Exact aggregation; zero-width bounds.
  kCombined = 2,  ///< Exact outlier part + sampled tail, stitched.
};

const char* GroupProvenanceToString(GroupProvenance provenance);

/// One output group of an approximate answer, viewed in place inside its
/// ApproximateResult: the group's key, the scaled estimates plus, per
/// aggregate, the standard error and the half-width error bound at the
/// configured confidence. A view stays valid until its result is next
/// modified, moved or destroyed.
struct ApproximateGroupRow {
  std::span<const Value> key;
  std::span<const double> estimates;
  std::span<const double> std_errors;
  std::span<const double> bounds;
  uint64_t support = 0;  ///< Sample tuples contributing to this group.
  GroupProvenance provenance = GroupProvenance::kSampled;
};

/// An approximate group-by answer with error bounds. Convertible to a
/// plain QueryResult (estimates only) for error-metric comparison against
/// exact answers.
///
/// Every group carries key_width() key values and num_aggregates()
/// aggregates, so the answer is stored flat, in row order and with no key
/// index: one array of keys (key_width() values per group), one array of
/// numbers holding each group's estimates, then its standard errors, then
/// its bounds (3 * num_aggregates() doubles per group, the order they take
/// on the wire), and one support and one provenance per group. An answer
/// thus costs a constant number of allocations however many groups it
/// has. Lookups follow QueryResult's rules (see result_rows).
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
    view.key = {keys_.data() + i * key_width_, key_width_};
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
  /// Keys strictly increasing and NaN-free, as QueryResult::searchable.
  bool searchable() const { return searchable_; }
  /// Sorts the groups by key unless they are already searchable.
  void SortByKey();

  /// Drops groups whose *estimated* aggregates fail any HAVING condition
  /// (an approximate HAVING: groups near the threshold may be mis-kept
  /// or mis-dropped, with likelihood governed by the group's bound).
  void FilterHaving(const std::vector<HavingCondition>& having);

  /// Multiplies every standard error and bound by `factor`, in place.
  void WidenBounds(double factor);

  /// Drops the bounds, keeping just the point estimates.
  QueryResult ToQueryResult() const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  /// Group i's key, for the result_rows helpers.
  auto KeyAt() const { return [this](size_t i) { return row(i).key; }; }

  size_t key_width_ = 0;
  size_t num_aggs_ = 0;
  std::vector<Value> keys_;      // num_groups() x key_width_.
  std::vector<double> numbers_;  // num_groups() x 3 * num_aggs_.
  std::vector<uint64_t> support_;
  std::vector<GroupProvenance> provenance_;
  /// Keys strictly increasing and NaN-free (result_rows::Searchable).
  bool searchable_ = true;
};

/// Computes an unbiased approximate answer to `query` from a stratified
/// sample, using the standard stratified expansion estimators of Section
/// 5.1: each sampled tuple is weighted by its stratum's ScaleFactor; SUM
/// scales values, COUNT sums scale factors, AVG is the ratio of the two
/// (with a delta-method variance). Error bounds are per group, per
/// aggregate.
///
/// Groups with no sampled tuples do not appear in the answer (the
/// uniform-sample failure mode the paper's Figure 4 illustrates).
///
/// The estimate folds and then rolls up, as the paper's Nested-Integrated
/// plan does (Section 5): the sums of each unit — its stratum when the
/// query groups on grouping columns, else its group over the query's and
/// the grouping columns — are scaled and added up per output group in
/// ascending unit id. `moments` MUST be SampleMoments::Compute(sample);
/// strata take their row layout, projection, keys and key order from the
/// roll-up it memoizes. A strata query with no predicate over COUNT(*)
/// and plain columns reads each stratum's moments and no sample row; any
/// other query folds its matching rows in ascending row order, as the
/// moments were folded, so both give the same bits. Output keys are those
/// of each group's first sample row, and rows come out sorted by key.
/// Estimates are bit-identical for every thread count.
Result<ApproximateResult> EstimateGroupBy(
    const StratifiedSample& sample, const SampleMoments& moments,
    const GroupByQuery& query,
    const EstimatorOptions& options = EstimatorOptions{},
    const ExecutorOptions& execution = {});

}  // namespace congress

#endif  // CONGRESS_CORE_ESTIMATOR_H_
