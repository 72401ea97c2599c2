#ifndef CONGRESS_CORE_DEGRADATION_H_
#define CONGRESS_CORE_DEGRADATION_H_

#include <string>

#include "core/estimator.h"

namespace congress {

/// Which rung of the planner's failure walk (planner::Planner) answered a
/// resilient query whose primary synopsis could not. Each rung trades
/// group-level accuracy guarantees for availability:
///   kNone          — the configured synopsis answered; nothing degraded.
///   kBasicCongress — answered from the snapshot's BasicCongress fallback
///                    (weaker sub-grouping guarantees than full Congress).
///   kHouse         — answered from a uniform House sample (small groups
///                    may be badly estimated or missing entirely).
///   kExactRebuild  — all sampling rungs failed; the answer is an exact
///                    scan of the base relation (slow but always right).
enum class DegradationLevel {
  kNone = 0,
  kBasicCongress = 1,
  kHouse = 2,
  kExactRebuild = 3,
};

const char* DegradationLevelToString(DegradationLevel level);

/// Machine-readable account of a degraded answer — the projection of a
/// planner::PlanReport: which rung served it, why every rung tried before
/// it failed, and the factor by which the reported error bounds were
/// widened to reflect the weaker strategy.
struct DegradationReason {
  DegradationLevel level = DegradationLevel::kNone;
  /// "rung: Status; rung: Status; ..." for each rung that failed, in the
  /// order tried. Empty when level == kNone.
  std::string cause;
  /// Multiplier applied to every std_error and bound in the answer
  /// (1.0 for kNone; exact answers carry zero-width bounds).
  double bound_widening = 1.0;

  bool degraded() const { return level != DegradationLevel::kNone; }
  std::string ToString() const;
};

/// An exact answer wearing the approximate-answer interface: the point
/// estimates are the truth and every bound is zero-width. Used by the
/// planner's exact plan and the serving front-end's exact mode.
ApproximateResult ExactAsApproximate(const QueryResult& exact);

/// An approximate answer plus the story of how it was produced.
struct ResilientAnswer {
  ApproximateResult result;
  DegradationReason degradation;
  /// Catalog epoch of the snapshot that served the answer (0 when the
  /// engine predates publication, e.g. in unit scaffolding). Lets a
  /// caller match the answer to one published snapshot generation.
  uint64_t epoch = 0;
};

}  // namespace congress

#endif  // CONGRESS_CORE_DEGRADATION_H_
