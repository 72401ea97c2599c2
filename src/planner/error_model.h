#ifndef CONGRESS_PLANNER_ERROR_MODEL_H_
#define CONGRESS_PLANNER_ERROR_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/synopsis.h"
#include "engine/query.h"
#include "join/star_schema.h"
#include "util/status.h"

namespace congress::planner {

/// Closed-form prediction of the error a stratified-sample synopsis would
/// report for one query, computed from the per-stratum column moments
/// cached at synopsis build time (SampleMoments) — no sample scan, O(#strata
/// x #aggregates). This is the planner's *ranking* signal: candidates are
/// ordered by predicted error, then the executed plan's realized bounds are
/// verified against the promise (predict to rank, verify to promise), so a
/// model approximation can cost a re-plan but never a broken promise.
struct ErrorPrediction {
  /// Worst predicted per-group relative half-width at the requested
  /// confidence (bound / max(|estimate|, floor)).
  double max_relative_bound = 0.0;
  /// Mean over (group, aggregate) of the predicted relative half-width.
  double mean_relative_bound = 0.0;
  /// Mean over (group, aggregate) of the predicted estimator variance.
  /// The planner widens the bounds of a fallback reached by failure by
  /// the square root of its ratio to the primary's (CandidateScore).
  double mean_variance = 0.0;
  /// Output groups the model predicts (strata projected to the query's
  /// grouping when it refines the synopsis grouping, one global group
  /// otherwise).
  size_t num_groups = 0;
  /// False when the model had to approximate: the query has a predicate
  /// (selectivity unknown at plan time), an expression aggregate (no
  /// per-expression moments), or groups by a column outside the synopsis
  /// grouping (strata cannot be split).
  bool exact_model = true;
};

/// Predicts the error `synopsis` would report answering `query` at
/// `confidence`, per the paper's Section 5 stratified-expansion variance
/// N(N-n)S^2/n accumulated from the cached moments. Strata listed in
/// `excluded_strata` contribute their estimate but zero variance — the
/// model of a combined plan that answers those strata exactly. Errors on
/// MIN/MAX aggregates (no unbiased sampling estimator) and invalid
/// confidence.
Result<ErrorPrediction> PredictSampleError(
    const AquaSynopsis& synopsis, const GroupByQuery& query, double confidence,
    const std::vector<uint32_t>& excluded_strata = {});

/// Whether `query` can be answered by a histogram/wavelet fleet member
/// built at `synopsis_grouping`: no tuple predicate (group-level summaries
/// carry no per-tuple detail), no expression aggregates, SUM/COUNT/AVG
/// only, and the query grouping must be a subset of the synopsis grouping
/// (roll-ups of the finest groups are answerable; refinements are not).
/// OK when eligible; the Status message names the first violated rule.
Status FleetEligibility(const GroupByQuery& query,
                        const std::vector<size_t>& synopsis_grouping);

/// Join-sample eligibility per the Joins-on-Samples rules ([AGPR99],
/// Section 2): a sample of the fact relation foreign-key-joined to *full*
/// dimension relations is a valid sample of the join, so a query over the
/// widened relation is answerable iff every aggregate input is a fact
/// column (measures live in the fact; a sample built from the dimension
/// side would not commute with the join), aggregates are SUM/COUNT/AVG,
/// and every referenced column exists in the widened schema. Grouping and
/// predicate columns may live in fact or dimension attributes — the
/// dimensions are complete. `query` must be bound against the widened
/// schema of `schema`.
Status JoinSampleEligibility(const StarSchema& schema,
                             const GroupByQuery& query);

}  // namespace congress::planner

#endif  // CONGRESS_PLANNER_ERROR_MODEL_H_
