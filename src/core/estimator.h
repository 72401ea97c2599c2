#ifndef CONGRESS_CORE_ESTIMATOR_H_
#define CONGRESS_CORE_ESTIMATOR_H_

#include <cmath>
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

/// Computes an unbiased approximate answer to `query` from a stratified
/// sample, using the standard stratified expansion estimators of Section
/// 5.1: each sampled tuple is weighted by its stratum's ScaleFactor; SUM
/// scales values, COUNT sums scale factors, AVG is the ratio of the two
/// (with a delta-method variance). Error bounds are per group, per
/// aggregate. Every group of the answer is GroupProvenance::kSampled and
/// carries its support; it is the ApproximateResult (engine/query.h) an
/// exact scan fills with zero-width bounds, so the two compare directly.
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
