#include "online/online_agg.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/scope.h"
#include "storage/group_index.h"
#include "util/random.h"

namespace congress {

Result<OnlineAggregator> OnlineAggregator::Start(
    const Table* table, GroupByQuery query, const OnlineAggOptions& options) {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  for (size_t c : query.group_columns) {
    if (c >= table->num_columns()) {
      return Status::InvalidArgument("group column out of range");
    }
  }
  for (const AggregateSpec& spec : query.aggregates) {
    switch (spec.kind) {
      case AggregateKind::kSum:
      case AggregateKind::kCount:
      case AggregateKind::kAvg:
        break;
      default:
        return Status::InvalidArgument(
            "online aggregation supports SUM/COUNT/AVG only");
    }
    CONGRESS_RETURN_NOT_OK(ValidateAggregate(spec, table->schema()));
  }
  if (options.confidence <= 0.0 || options.confidence >= 1.0) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }

  OnlineAggregator agg;
  agg.table_ = table;
  agg.query_ = std::move(query);
  agg.options_ = options;

  Random rng(options.seed);
  const size_t n = table->num_rows();

  // Group membership (the "index" of index striding) and populations,
  // interned once: Step() then resolves each scanned row to its group
  // with one array load. Dense ids are assigned in first-occurrence row
  // order, so the scan order depends only on the seed.
  CONGRESS_METRIC_INCR("online.starts", 1);
  CONGRESS_SPAN(start_span, options.execution.scope, "online_start");
  auto index =
      GroupIndex::Build(*table, agg.query_.group_columns,
                        options.execution.WithScope(start_span.scope()));
  if (!index.ok()) return index.status();
  const size_t num_groups = index->num_groups();
  agg.group_keys_ = index->keys();
  agg.row_groups_ = index->row_ids();
  agg.groups_.resize(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    GroupState& state = agg.groups_[g];
    state.population = index->counts()[g];
    state.sum.assign(agg.query_.aggregates.size(), 0.0);
    state.sum2.assign(agg.query_.aggregates.size(), 0.0);
  }

  agg.scan_order_.reserve(n);
  if (!options.index_striding) {
    // Random-order scan of the whole relation.
    for (size_t row = 0; row < n; ++row) {
      agg.scan_order_.push_back(static_cast<uint32_t>(row));
    }
    rng.Shuffle(&agg.scan_order_);
  } else {
    // Index striding: shuffle within each group, then take one tuple per
    // group per round, so every group's sample grows at the same rate
    // until the group is exhausted. Groups are visited in
    // first-occurrence order (= ascending first row id), which is
    // deterministic for a given table.
    GroupIndex::RowLists lists = index->GroupRows();
    std::vector<std::vector<uint32_t>> members(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      members[g].assign(
          lists.rows.begin() + static_cast<ptrdiff_t>(lists.offsets[g]),
          lists.rows.begin() + static_cast<ptrdiff_t>(lists.offsets[g + 1]));
      rng.Shuffle(&members[g]);
    }
    size_t round = 0;
    bool any = true;
    while (any) {
      any = false;
      for (const auto& rows : members) {
        if (round < rows.size()) {
          agg.scan_order_.push_back(rows[round]);
          any = true;
        }
      }
      ++round;
    }
  }
  return agg;
}

size_t OnlineAggregator::Step(size_t batch) {
  size_t consumed = 0;
  const size_t num_aggs = query_.aggregates.size();
  CONGRESS_METRIC_INCR("online.steps", 1);
  while (consumed < batch && position_ < scan_order_.size()) {
    size_t row = scan_order_[position_];
    ++position_;
    ++consumed;
    GroupState& state = groups_[row_groups_[row]];
    state.processed += 1;
    if (query_.predicate != nullptr &&
        !query_.predicate->Matches(*table_, row)) {
      continue;
    }
    state.matched += 1;
    for (size_t a = 0; a < num_aggs; ++a) {
      double v = AggregateInput(query_.aggregates[a], *table_, row);
      state.sum[a] += v;
      state.sum2[a] += v * v;
    }
  }
  return consumed;
}

double OnlineAggregator::Progress() const {
  if (scan_order_.empty()) return 1.0;
  return static_cast<double>(position_) /
         static_cast<double>(scan_order_.size());
}

Result<ApproximateResult> OnlineAggregator::CurrentEstimate() const {
  const size_t num_aggs = query_.aggregates.size();
  const double cheb = 1.0 / std::sqrt(1.0 - options_.confidence);

  ApproximateResult result(query_.group_columns.size(), num_aggs);
  for (size_t g = 0; g < groups_.size(); ++g) {
    const GroupState& state = groups_[g];
    if (state.matched == 0) continue;  // Group not (yet) represented.
    // Per-group sampling fraction. Striding knows it exactly; the uniform
    // scan's per-group processed count is hypergeometric around the
    // global fraction, and conditioning on it is the standard
    // post-stratified OLA estimator.
    const double n = static_cast<double>(state.processed);
    const double big_n = static_cast<double>(state.population);
    const double sf = big_n / n;

    std::span<double> numbers =
        result.Add(group_keys_[g], state.matched, GroupProvenance::kSampled);
    double* estimates = numbers.data();
    double* std_errors = estimates + num_aggs;
    double* bounds = std_errors + num_aggs;
    double est_cnt = sf * static_cast<double>(state.matched);
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggregateSpec& spec = query_.aggregates[a];
      double est_sum = sf * state.sum[a];
      // Sample variance of z (zeros included for unmatched draws).
      double mean = state.sum[a] / n;
      double ss = std::max(0.0, state.sum2[a] - n * mean * mean);
      double s2 = n > 1.0 ? ss / (n - 1.0) : 0.0;
      double variance = big_n * std::max(0.0, big_n - n) * s2 / n;
      switch (spec.kind) {
        case AggregateKind::kSum:
        case AggregateKind::kCount:
          estimates[a] = spec.kind == AggregateKind::kCount ? est_cnt : est_sum;
          std_errors[a] = std::sqrt(variance);
          break;
        case AggregateKind::kAvg:
          estimates[a] = est_cnt > 0.0 ? est_sum / est_cnt : 0.0;
          // Crude delta-method: scale the SUM error by 1/count.
          std_errors[a] = est_cnt > 0.0 ? std::sqrt(variance) / est_cnt : 0.0;
          break;
        default:
          break;
      }
      bounds[a] = cheb * std_errors[a];
    }
  }
  result.FilterHaving(query_.having);
  result.SortByKey();
  return result;
}

}  // namespace congress
