#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/metrics.h"

namespace congress {

std::string GroupByErrorReport::ToString() const {
  std::ostringstream oss;
  oss << "Linf=" << linf << "% L1=" << l1 << "% L2=" << l2 << "% over "
      << exact_groups << " groups";
  if (missing_groups > 0) oss << " (" << missing_groups << " missing)";
  if (extra_groups > 0) oss << " (" << extra_groups << " extra)";
  return oss.str();
}

GroupByErrorReport CompareAnswers(const ApproximateResult& exact,
                                  const ApproximateResult& approx,
                                  size_t agg_index, MissingGroupPolicy policy) {
  GroupByErrorReport report;
  report.exact_groups = exact.num_groups();
  double sum = 0.0;
  double sum_sq = 0.0;
  size_t counted = 0;

  for (const ApproximateGroupRow& row : exact.rows()) {
    const auto match = approx.Find(row.key);
    double err;
    if (!match) {
      report.missing_groups += 1;
      if (policy == MissingGroupPolicy::kSkip) {
        report.per_group_errors.push_back(
            std::numeric_limits<double>::quiet_NaN());
        continue;
      }
      err = 100.0;
    } else {
      double c = row.estimates[agg_index];
      double c_hat = match->estimates[agg_index];
      if (c == 0.0) {
        err = (c_hat == 0.0) ? 0.0 : 100.0;
      } else {
        err = std::fabs(c - c_hat) / std::fabs(c) * 100.0;  // Eq. 1.
      }
    }
    report.per_group_errors.push_back(err);
    report.linf = std::max(report.linf, err);
    sum += err;
    sum_sq += err * err;
    ++counted;
  }

  for (const ApproximateGroupRow& row : approx.rows()) {
    if (!exact.Find(row.key)) report.extra_groups += 1;
  }

  if (counted > 0) {
    report.l1 = sum / static_cast<double>(counted);
    report.l2 = std::sqrt(sum_sq / static_cast<double>(counted));
  }
  // The realized error, to read alongside the estimator's
  // last_mean_relative_bound gauge (estimated vs. actual).
  CONGRESS_METRIC_INCR("error.comparisons", 1);
  CONGRESS_METRIC_SET("error.last_actual_l1_percent", report.l1);
  return report;
}

}  // namespace congress
