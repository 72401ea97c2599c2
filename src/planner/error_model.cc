#include "planner/error_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace congress::planner {

namespace {

/// Floor for relative-error denominators: a predicted estimate of exactly
/// zero with a non-zero bound reads as "relative error unbounded".
constexpr double kEstimateFloor = 1e-9;

constexpr ColumnMoments kNoMoments{};
constexpr ExpansionTerms kZeroTerms{};

}  // namespace

Result<ErrorPrediction> PredictSampleError(
    const AquaSynopsis& synopsis, const GroupByQuery& query, double confidence,
    const std::vector<uint32_t>& excluded_strata) {
  if (confidence <= 0.0 || confidence >= 1.0) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateKind::kMin || spec.kind == AggregateKind::kMax) {
      return Status::InvalidArgument(
          "MIN/MAX have no unbiased sampling estimator; use ExecuteExact");
    }
  }

  const StratifiedSample& sample = synopsis.sample();
  const SampleMoments& moments = synopsis.moments();
  const std::vector<Stratum>& strata = sample.strata();

  ErrorPrediction prediction;
  if (strata.empty()) return prediction;
  if (query.HasPredicate()) prediction.exact_model = false;

  for (uint32_t s : excluded_strata) {
    if (s >= strata.size()) {
      return Status::InvalidArgument("excluded stratum out of range");
    }
  }

  // Map each stratum to the output group the model predicts for it. The
  // stratum key is the finest-grouping key; when every query grouping
  // column appears in the synopsis grouping, the output key is its
  // projection. Otherwise the strata cannot be split and the model
  // collapses to one global group (the empty roll-up).
  const std::vector<size_t>& synopsis_grouping = sample.grouping_columns();
  std::vector<size_t> key_positions;
  bool projectable = true;
  for (size_t col : query.group_columns) {
    auto it =
        std::find(synopsis_grouping.begin(), synopsis_grouping.end(), col);
    if (it == synopsis_grouping.end()) {
      projectable = false;
      break;
    }
    key_positions.push_back(
        static_cast<size_t>(it - synopsis_grouping.begin()));
  }
  if (!projectable) {
    prediction.exact_model = false;
    key_positions.clear();
  }

  // Every per-(group, column) sum the model needs is pre-aggregated and
  // memoized per roll-up inside the moments, so scoring is
  // O(#groups x #aggregates) — only the few excluded strata of a
  // combined plan are revisited individually below.
  const GroupedExpansionTerms& grouped =
      moments.GroupedFor(sample, key_positions);

  // Proxy moments column for expression aggregates: the most dispersed
  // non-grouping numeric column (largest total sum of squares). There are
  // no per-expression moments, so this is a ranking approximation.
  size_t proxy_column = SIZE_MAX;
  bool has_expression = false;
  for (const AggregateSpec& spec : query.aggregates) {
    has_expression = has_expression || spec.expression != nullptr;
  }
  if (has_expression) {
    double best = -1.0;
    for (size_t col : moments.numeric_columns()) {
      if (std::find(synopsis_grouping.begin(), synopsis_grouping.end(), col) !=
          synopsis_grouping.end()) {
        continue;
      }
      const double total = moments.TotalSumSq(col);
      if (total > best) {
        best = total;
        proxy_column = col;
      }
    }
    if (proxy_column == SIZE_MAX && !moments.numeric_columns().empty()) {
      proxy_column = moments.numeric_columns().front();
    }
  }

  const BoundHalfWidth half_width(synopsis.config().estimator.bound_method,
                                  confidence);
  const size_t g_count = grouped.num_groups;

  double sum_relative = 0.0;
  double sum_variance = 0.0;
  size_t cells = 0;
  std::vector<double> excl_var;
  std::vector<double> excl_c2;
  for (const AggregateSpec& spec : query.aggregates) {
    size_t column = spec.column;
    if (spec.expression != nullptr) {
      if (proxy_column == SIZE_MAX) continue;
      column = proxy_column;
      prediction.exact_model = false;
    }
    const bool count_agg = spec.kind == AggregateKind::kCount;
    const size_t slot = count_agg ? SIZE_MAX : moments.SlotOf(column);

    // Strata a combined plan answers exactly keep their estimate but
    // contribute zero variance: subtract their terms from the grouped
    // sums.
    if (!excluded_strata.empty()) {
      excl_var.assign(g_count, 0.0);
      excl_c2.assign(g_count, 0.0);
      for (uint32_t s : excluded_strata) {
        const ExpansionTerms t = StratumExpansionTerms(
            strata[s], count_agg ? kNoMoments : moments.Of(s, column),
            count_agg);
        excl_var[grouped.group_of[s]] += t.var;
        excl_c2[grouped.group_of[s]] += t.hoeff_c2;
      }
    }

    for (size_t g = 0; g < g_count; ++g) {
      const ExpansionTerms& t =
          count_agg ? grouped.count_terms[g]
                    : (slot != SIZE_MAX
                           ? grouped.column_terms[slot * g_count + g]
                           : kZeroTerms);
      double var_sum = t.var;
      double hoeff_c2 = t.hoeff_c2;
      if (!excluded_strata.empty()) {
        var_sum -= excl_var[g];
        hoeff_c2 -= excl_c2[g];
        if (var_sum < 0.0) var_sum = 0.0;
        if (hoeff_c2 < 0.0) hoeff_c2 = 0.0;
      }

      double est = 0.0;
      double variance = 0.0;
      bool hoeffding_ok = false;
      switch (spec.kind) {
        case AggregateKind::kSum:
        case AggregateKind::kCount:
          est = t.est;
          variance = var_sum;
          hoeffding_ok = true;
          break;
        case AggregateKind::kAvg:
          // No-predicate model: COUNT variance and the SUM/COUNT
          // covariance both vanish, leaving the delta-method ratio
          // variance var_sum / cnt^2.
          if (grouped.population[g] > 0.0) {
            est = t.est / grouped.population[g];
            variance =
                var_sum / (grouped.population[g] * grouped.population[g]);
          }
          break;
        default:
          break;
      }
      if (variance < 0.0) variance = 0.0;
      const double bound =
          half_width(std::sqrt(variance), hoeffding_ok, hoeff_c2);
      const double relative =
          bound / std::max(std::fabs(est), kEstimateFloor);
      prediction.max_relative_bound =
          std::max(prediction.max_relative_bound, relative);
      sum_relative += relative;
      sum_variance += variance;
      ++cells;
    }
  }
  prediction.num_groups = g_count;
  if (cells > 0) {
    prediction.mean_relative_bound = sum_relative / static_cast<double>(cells);
    prediction.mean_variance = sum_variance / static_cast<double>(cells);
  }
  return prediction;
}

Status FleetEligibility(const GroupByQuery& query,
                        const std::vector<size_t>& synopsis_grouping) {
  if (query.HasPredicate()) {
    return Status::FailedPrecondition(
        "fleet summaries carry no per-tuple detail to evaluate a predicate");
  }
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateKind::kMin || spec.kind == AggregateKind::kMax) {
      return Status::FailedPrecondition(
          "fleet summaries answer SUM/COUNT/AVG only");
    }
    if (spec.expression != nullptr) {
      return Status::FailedPrecondition(
          "fleet summaries pre-aggregate plain columns, not expressions");
    }
  }
  for (size_t col : query.group_columns) {
    if (std::find(synopsis_grouping.begin(), synopsis_grouping.end(), col) ==
        synopsis_grouping.end()) {
      return Status::FailedPrecondition(
          "query grouping refines the synopsis grouping; fleet summaries "
          "answer roll-ups only");
    }
  }
  return Status::OK();
}

Status JoinSampleEligibility(const StarSchema& schema,
                             const GroupByQuery& query) {
  if (schema.fact == nullptr) {
    return Status::InvalidArgument("star schema has no fact table");
  }
  auto widened = WidenedSchema(schema);
  if (!widened.ok()) return widened.status();
  const size_t num_widened = widened->num_fields();
  const size_t num_fact = schema.fact->num_columns();
  for (size_t col : query.group_columns) {
    if (col >= num_widened) {
      return Status::InvalidArgument(
          "grouping column out of range of the widened relation");
    }
  }
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateKind::kMin || spec.kind == AggregateKind::kMax) {
      return Status::FailedPrecondition(
          "MIN/MAX have no unbiased join-sample estimator");
    }
    if (spec.kind == AggregateKind::kCount) continue;
    if (spec.expression != nullptr) {
      return Status::FailedPrecondition(
          "expression aggregates cannot be proven fact-only; join-sample "
          "answers require fact-table measures");
    }
    if (spec.column >= num_widened) {
      return Status::InvalidArgument(
          "aggregate column out of range of the widened relation");
    }
    if (spec.column >= num_fact) {
      return Status::FailedPrecondition(
          "aggregate over a dimension attribute: sampling commutes with the "
          "foreign-key join only for fact-table measures (Joins-on-Samples)");
    }
  }
  return Status::OK();
}

}  // namespace congress::planner
