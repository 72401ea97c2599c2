#include "core/degradation.h"

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

std::string DegradationReason::ToString() const {
  if (!degraded()) return "none";
  std::ostringstream out;
  out << DegradationLevelToString(level) << " (bounds x" << bound_widening
      << "): " << cause;
  return out.str();
}

}  // namespace congress
