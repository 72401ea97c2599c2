#include "core/degradation.h"

#include <algorithm>
#include <sstream>

namespace congress {

const char* DegradationLevelToString(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kNone:
      return "none";
    case DegradationLevel::kBasicCongress:
      return "basic_congress";
    case DegradationLevel::kHouse:
      return "house";
    case DegradationLevel::kExactRebuild:
      return "exact_rebuild";
  }
  return "unknown";
}

ApproximateResult ExactAsApproximate(const QueryResult& exact) {
  const std::vector<GroupResult>& rows = exact.rows();
  ApproximateResult out(rows.empty() ? 0 : rows[0].key.size(),
                        rows.empty() ? 0 : rows[0].aggregates.size());
  out.Reserve(rows.size());
  for (const GroupResult& row : rows) {
    // Zero standard errors and bounds: the numbers are exact.
    std::span<double> numbers = out.Add(row.key, 0, GroupProvenance::kExact);
    std::copy(row.aggregates.begin(), row.aggregates.end(), numbers.begin());
  }
  return out;
}

std::string DegradationReason::ToString() const {
  if (!degraded()) return "none";
  std::ostringstream out;
  out << DegradationLevelToString(level) << " (bounds x" << bound_widening
      << "): " << cause;
  return out.str();
}

}  // namespace congress
