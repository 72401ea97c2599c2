#ifndef CONGRESS_PLANNER_PLANNER_H_
#define CONGRESS_PLANNER_PLANNER_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/estimator.h"
#include "engine/query.h"
#include "planner/error_model.h"
#include "util/status.h"

namespace congress::planner {

/// Every execution strategy the planner can choose over one snapshot's
/// synopsis fleet, ordered weakest-guarantee-first; escalation on a broken
/// promise only ever moves toward kCombined / kExact.
enum class PlanKind {
  kPrimarySynopsis = 0,  ///< The snapshot's configured synopsis.
  kFallbackBasic = 1,    ///< Fallback BasicCongress synopsis.
  kFallbackHouse = 2,    ///< Fallback House synopsis.
  kHistogram = 3,        ///< Fleet group histogram (residual model).
  kWavelet = 4,          ///< Fleet wavelet synopsis (residual model).
  kCombined = 5,         ///< Exact outlier strata + sampled tail, stitched.
  kExact = 6,            ///< Exact scan of the retained base relation.
};

inline constexpr size_t kNumPlanKinds = 7;

const char* PlanKindToString(PlanKind kind);

struct PlannerOptions {
  /// Outlier strata a combined plan answers exactly: the top-k by base
  /// population. The exact part's cost grows with their population, so k
  /// stays small.
  size_t max_outlier_strata = 4;

  /// Cost-model row rates for time budgets, in milliseconds per row
  /// scanned (sample scans and base-table scans) and per summary cell.
  /// Deliberately coarse: time budgets need plan *ordering*, not
  /// microsecond forecasts.
  double ms_per_sample_row = 2e-5;
  double ms_per_base_row = 2e-5;
  double ms_per_summary_cell = 1e-6;

  /// Floor for relative-error denominators (|estimate| below this reads
  /// as "relative error unbounded").
  double estimate_floor = 1e-9;
};

/// One scored candidate from the snapshot's fleet.
struct CandidateScore {
  PlanKind kind = PlanKind::kPrimarySynopsis;
  bool eligible = false;
  /// Predicted worst-group relative half-width at the promised
  /// confidence; +inf when no prediction applies.
  double predicted_relative_error = std::numeric_limits<double>::infinity();
  /// Predicted mean estimator variance of a sample plan (0 when unscored);
  /// sets the widening of a fallback reached by failure.
  double mean_variance = 0.0;
  double predicted_cost_ms = 0.0;
  /// Ineligibility reason, or a one-line model note.
  std::string detail;
};

/// The plan the scorer settled on.
struct PlanChoice {
  PlanKind kind = PlanKind::kPrimarySynopsis;
  /// Strata (indices into the primary sample's strata()) a kCombined plan
  /// answers exactly; empty otherwise.
  std::vector<uint32_t> outlier_strata;
};

/// The full EXPLAIN PLAN story: every candidate considered with its
/// score, the chosen plan, and predicted vs. promised vs. (after Run)
/// realized error.
struct PlanReport {
  std::vector<CandidateScore> candidates;
  PlanChoice chosen;
  QueryBudget budget;
  /// The chosen candidate's predicted worst-group relative half-width.
  double predicted_relative_error = 0.0;
  /// Worst realized per-group relative half-width of the delivered
  /// answer; -1 until Run() verified one.
  double realized_relative_error = -1.0;
  /// Times verification found the promise broken and re-planned up the
  /// kCombined -> kExact ladder. Failure moves are not counted here.
  size_t escalations = 0;
  /// Every failed attempt in the order tried, as "<rung>: <Status>; ..."
  /// (rungs primary, basic_congress, house, exact). Empty if none.
  std::string failures;
  /// Factor applied to the delivered answer's std_errors and bounds: the
  /// variance-derived widening of a fallback reached by failure, else 1.
  double bound_widening = 1.0;

  std::string ToString() const;
};

/// An answer plus the plan that produced it.
struct PlannedAnswer {
  ApproximateResult result;
  PlanReport report;
};

/// Executes a combined plan directly: the listed outlier strata are
/// aggregated exactly from the snapshot's base relation, the remaining
/// strata are estimated from the sample with those strata excluded, and
/// the two parts are stitched per group with provenance (kExact /
/// kSampled / kCombined) and tail-only error bounds. AVG aggregates are
/// internally expanded to SUM/COUNT so the exact and sampled parts
/// combine as a ratio with propagated bounds. Exposed for the planner
/// identity oracle; `confidence` overrides the synopsis default when
/// positive.
Result<ApproximateResult> ExecuteCombinedPlan(
    const AquaSnapshot& snapshot, const GroupByQuery& query,
    const std::vector<uint32_t>& outlier_strata, double confidence = 0.0);

/// The accuracy-aware planner: scores every applicable member of one
/// snapshot's synopsis fleet against the query's budget using the
/// closed-form error model (error_model.h), executes the cheapest plan
/// predicted to meet the promise, then verifies the realized bounds and
/// escalates toward kCombined / kExact if the promise is broken — the
/// exact endpoint satisfies any budget, so an error promise is always
/// eventually honored when the base relation is available.
/// A failed attempt — an error Status, or a hit at the plan's failpoint
/// site "aqua/primary_answer", "aqua/fallback_basic", "aqua/fallback_house"
/// or "aqua/exact_rebuild" — is the other trigger. It moves to the first
/// untried plan of the failure walk: primary, the fallbacks by predicted
/// error (PlanKind order on ties, unscored last), exact; never combined or
/// a summary. A fallback so reached has its bounds widened by
/// clamp(sqrt(fallback / primary mean_variance), 1, 8).
class Planner {
 public:
  explicit Planner(PlannerOptions options = PlannerOptions{});

  /// Scores the fleet and chooses a plan without executing anything.
  Result<PlanReport> Plan(const AquaSnapshot& snapshot,
                          const GroupByQuery& query) const;

  /// Plans, executes, verifies, and (if needed) escalates. With no active
  /// budget the primary synopsis answers directly — bit-identical to
  /// AquaSynopsis::Answer — and the fleet is scored only if that attempt
  /// fails, so a healthy budget-free report lists no candidates. Every
  /// attempt after the first checks `deadline` (DeadlineExceeded);
  /// Internal when the failure walk is spent.
  Result<PlannedAnswer> Run(
      const AquaSnapshot& snapshot, const GroupByQuery& query,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max()) const;

 private:
  Result<ApproximateResult> Execute(const AquaSnapshot& snapshot,
                                    const GroupByQuery& query,
                                    const PlanChoice& choice) const;

  PlannerOptions options_;
};

}  // namespace congress::planner

#endif  // CONGRESS_PLANNER_PLANNER_H_
