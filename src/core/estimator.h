#ifndef CONGRESS_CORE_ESTIMATOR_H_
#define CONGRESS_CORE_ESTIMATOR_H_

#include <string>
#include <vector>

#include "engine/query.h"
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

/// One output group of an approximate answer: the scaled estimates plus,
/// per aggregate, the standard error and the half-width error bound at
/// the configured confidence.
struct ApproximateGroupRow {
  GroupKey key;
  std::vector<double> estimates;
  std::vector<double> std_errors;
  std::vector<double> bounds;
  uint64_t support = 0;  ///< Sample tuples contributing to this group.
  GroupProvenance provenance = GroupProvenance::kSampled;
};

/// An approximate group-by answer with error bounds. Convertible to a
/// plain QueryResult (estimates only) for error-metric comparison against
/// exact answers. Rows live in one key-ordered vector with no key index,
/// exactly as in QueryResult (see result_rows).
class ApproximateResult {
 public:
  /// Appends a group row.
  void Add(ApproximateGroupRow row);
  size_t num_groups() const { return rows_.size(); }
  const std::vector<ApproximateGroupRow>& rows() const { return rows_; }
  const ApproximateGroupRow* Find(const GroupKey& key) const;
  /// Keys strictly increasing and NaN-free, as QueryResult::searchable.
  bool searchable() const { return searchable_; }
  void SortByKey();

  /// Drops groups whose *estimated* aggregates fail any HAVING condition
  /// (an approximate HAVING: groups near the threshold may be mis-kept
  /// or mis-dropped, with likelihood governed by the group's bound).
  void FilterHaving(const std::vector<HavingCondition>& having);

  /// Drops the bounds, keeping just the point estimates.
  QueryResult ToQueryResult() const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  std::vector<ApproximateGroupRow> rows_;
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
/// plan does (Section 5): every sampled tuple is folded, in ascending row
/// order, into the per-aggregate sums of its unit — its stratum when the
/// query groups on a subset of the sample's grouping columns, else its
/// group over the query's and the grouping columns — parallel across
/// units per `execution`. The units' scaled terms are then added up per
/// output group in ascending unit id. Output keys are those of each
/// group's first sample row, and rows come out sorted by key. Estimates
/// are bit-identical for every thread count.
Result<ApproximateResult> EstimateGroupBy(
    const StratifiedSample& sample, const GroupByQuery& query,
    const EstimatorOptions& options = EstimatorOptions{},
    const ExecutorOptions& execution = {});

}  // namespace congress

#endif  // CONGRESS_CORE_ESTIMATOR_H_
