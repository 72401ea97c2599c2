#ifndef CONGRESS_TESTING_STAT_VALIDATOR_H_
#define CONGRESS_TESTING_STAT_VALIDATOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "planner/planner.h"
#include "sampling/allocation.h"
#include "testing/datagen.h"
#include "util/status.h"

namespace congress::testing {

/// One coverage experiment: K independently seeded (table, sample) draws
/// of the same configuration, each estimated at the finest grouping with
/// SUM/COUNT/AVG, each (run, group, aggregate) scored as one Bernoulli
/// trial of "did the confidence interval cover the exact answer".
struct CoverageConfig {
  /// Table shape; `data.seed` is the base seed, run r uses seed
  /// data.seed + r for both the table draw and the sample draw.
  SyntheticSpec data;
  AllocationStrategy strategy = AllocationStrategy::kCongress;
  /// Expected sample size = fraction * num_rows.
  double sample_fraction = 0.10;
  /// Nominal CI level; the validator checks coverage >= this (Chebyshev
  /// intervals over-cover, so only the lower side is a correctness claim).
  double confidence = 0.95;
  BoundMethod bound_method = BoundMethod::kChebyshev;
  uint64_t num_runs = 200;
};

/// Tallied coverage. Trials where the variance is not estimable (fewer
/// than 2 sampled tuples in the group) are counted as `degenerate` and
/// excluded: the estimator reports bound 0 there by design, which is a
/// statement of ignorance, not an interval.
struct CoverageReport {
  uint64_t trials = 0;
  uint64_t covered = 0;
  uint64_t degenerate = 0;
  /// Exact-answer groups with no sampled tuple at all (the paper's
  /// missing-group failure mode; expected for House on skewed data).
  uint64_t missing_groups = 0;

  /// Trials split by the group's population decile within its run
  /// (decile 0 = smallest groups, 9 = largest).
  std::array<uint64_t, 10> decile_trials{};
  std::array<uint64_t, 10> decile_covered{};

  double coverage() const {
    return trials == 0 ? 1.0
                       : static_cast<double>(covered) /
                             static_cast<double>(trials);
  }
  std::string ToString() const;
};

/// Runs the experiment. Deterministic in CoverageConfig.
Result<CoverageReport> RunCoverage(const CoverageConfig& config);

/// One-sided binomial check at ~4-sigma: overall coverage, and the
/// coverage of every decile with at least `min_decile_trials` trials,
/// must each be >= confidence - z * sqrt(c(1-c)/trials). The upper side
/// is deliberately unchecked — Chebyshev intervals over-cover.
Status ValidateCoverage(const CoverageReport& report, double confidence,
                        double z = 4.0, uint64_t min_decile_trials = 50);

/// The planner's budget-coverage experiment: K independently seeded
/// (table, engine) draws, each answered through planner::Planner::Run
/// under every budget tier (`WITHIN tier% CONFIDENCE confidence%`), each
/// (run, group, aggregate) one Bernoulli trial of "did the reported
/// interval cover the exact answer". Separately from coverage, every
/// trial's reported half-width must honor the promise (bound <= tier *
/// |estimate|) — the planner's verify-and-escalate loop makes that a hard
/// guarantee, not a statistical one.
struct BudgetCoverageConfig {
  /// Table shape; `data.seed` is the base seed, run r uses seed
  /// data.seed + r for the table draw, the sample draw derives from it.
  SyntheticSpec data;
  AllocationStrategy strategy = AllocationStrategy::kCongress;
  double sample_fraction = 0.10;
  /// The confidence every budget tier promises at.
  double confidence = 0.95;
  /// Relative half-width promises, loosest first: a loose tier the
  /// primary synopsis meets outright, a mid tier that exercises combined
  /// plans, and a tight tier that forces escalation toward exact.
  std::vector<double> budget_tiers = {0.5, 0.10, 0.02};
  uint64_t num_runs = 6;
};

/// Per-tier tallies. `promise_broken` counts trials whose delivered
/// half-width exceeds the promised fraction of the estimate — any nonzero
/// value is a planner bug (the exact endpoint satisfies every budget).
struct BudgetCoverageReport {
  struct Tier {
    double budget = 0.0;
    uint64_t trials = 0;
    uint64_t covered = 0;
    uint64_t promise_broken = 0;
    /// Exact-answer groups absent from the delivered answer (possible
    /// when a loose budget is served from the sample alone).
    uint64_t missing_groups = 0;

    /// Trials split by the group's population decile within its run
    /// (decile 0 = smallest groups) and by the delivered plan kind.
    std::array<uint64_t, 10> decile_trials{};
    std::array<uint64_t, 10> decile_covered{};
    std::array<uint64_t, planner::kNumPlanKinds> kind_trials{};
    std::array<uint64_t, planner::kNumPlanKinds> kind_covered{};
    /// Runs delivered by each plan kind (the tier's plan mix).
    std::array<uint64_t, planner::kNumPlanKinds> kind_runs{};

    double coverage() const {
      return trials == 0 ? 1.0
                         : static_cast<double>(covered) /
                               static_cast<double>(trials);
    }
  };
  std::vector<Tier> tiers;
  std::string ToString() const;
};

/// Runs the experiment. Deterministic in BudgetCoverageConfig.
Result<BudgetCoverageReport> RunBudgetCoverage(
    const BudgetCoverageConfig& config);

/// Validates a budget-coverage report: every tier needs at least
/// `min_trials` trials, zero broken promises, and one-sided binomial
/// coverage floors (as in ValidateCoverage) overall, per group-size
/// decile, and per delivered plan kind with at least `min_slice_trials`
/// trials.
Status ValidateBudgetCoverage(const BudgetCoverageReport& report,
                              double confidence, double z = 4.0,
                              uint64_t min_trials = 200,
                              uint64_t min_slice_trials = 50);

}  // namespace congress::testing

#endif  // CONGRESS_TESTING_STAT_VALIDATOR_H_
