#ifndef CONGRESS_CORE_METRICS_H_
#define CONGRESS_CORE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/query.h"

namespace congress {

/// How to score groups that exist in the exact answer but are missing
/// from the approximate one (a group with zero sampled tuples).
enum class MissingGroupPolicy {
  kHundredPercent = 0,  ///< Count as 100% error (default; matches the
                        ///< intuition that the answer is useless).
  kSkip = 1,            ///< Exclude from the error norms; reported
                        ///< separately as `missing_groups`.
};

/// Per-query error report implementing Definition 3.1 of the paper: the
/// percentage relative error of each group (Eq. 1), combined with the
/// L-infinity (max), L1 (mean) and L2 (root-mean-square) norms.
struct GroupByErrorReport {
  double linf = 0.0;
  double l1 = 0.0;
  double l2 = 0.0;
  size_t exact_groups = 0;
  size_t missing_groups = 0;  ///< In exact but absent from approximate.
  size_t extra_groups = 0;    ///< In approximate but absent from exact.
  std::vector<double> per_group_errors;  ///< Aligned with exact rows().

  std::string ToString() const;
};

/// Compares one aggregate column (`agg_index` into the SELECT list) of an
/// approximate answer's estimates against the exact answer's, matching
/// groups by key (ApproximateResult::Find). A group whose exact value is
/// 0 scores 0% if the estimate is also 0 and 100% otherwise (relative
/// error is undefined at 0). Bounds are not read.
GroupByErrorReport CompareAnswers(
    const ApproximateResult& exact, const ApproximateResult& approx,
    size_t agg_index,
    MissingGroupPolicy policy = MissingGroupPolicy::kHundredPercent);

}  // namespace congress

#endif  // CONGRESS_CORE_METRICS_H_
