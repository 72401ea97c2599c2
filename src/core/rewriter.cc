#include "core/rewriter.h"

#include <algorithm>
#include <cassert>

#include "engine/executor.h"
#include "engine/kernels.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "resilience/failpoint.h"
#include "storage/group_index.h"

namespace congress {

const char* RewriteStrategyToString(RewriteStrategy strategy) {
  switch (strategy) {
    case RewriteStrategy::kIntegrated:
      return "Integrated";
    case RewriteStrategy::kNestedIntegrated:
      return "Nested-Integrated";
    case RewriteStrategy::kNormalized:
      return "Normalized";
    case RewriteStrategy::kKeyNormalized:
      return "Key-Normalized";
  }
  return "Unknown";
}

Rewriter::Rewriter(const StratifiedSample& sample)
    : grouping_columns_(sample.grouping_columns()),
      base_num_columns_(sample.base_schema().num_fields()),
      integrated_(sample.MaterializeIntegrated()),
      normalized_samp_(sample.rows()),
      normalized_aux_(sample.MaterializeAuxNormalized()) {
  auto key_form = sample.MaterializeKeyNormalized();
  key_samp_ = std::move(key_form.samp_rel);
  key_aux_ = std::move(key_form.aux_rel);
}

namespace {

Status ValidateForRewrite(const GroupByQuery& query, const Schema& schema,
                          size_t base_columns) {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  for (size_t c : query.group_columns) {
    if (c >= base_columns) {
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
            "rewrite strategies support SUM/COUNT/AVG only");
    }
    CONGRESS_RETURN_NOT_OK(ValidateAggregate(spec, schema));
    if (spec.kind != AggregateKind::kCount && spec.expression == nullptr &&
        spec.column >= base_columns) {
      return Status::InvalidArgument("aggregate column out of range");
    }
  }
  for (const HavingCondition& cond : query.having) {
    if (cond.aggregate_index >= query.aggregates.size()) {
      return Status::InvalidArgument("HAVING references a missing aggregate");
    }
  }
  return Status::OK();
}

/// Shared flat plan: scan `rel` (whose column `sf_col` holds the per-tuple
/// scale factor), apply the predicate, and compute
///   SUM   -> sum(v * sf)
///   COUNT -> sum(sf)
///   AVG   -> sum(v * sf) / sum(sf)
/// grouped by the query's group columns. This is the Integrated plan, and
/// also the post-join plan of the Normalized variants.
Result<ApproximateResult> AggregateScaled(const Table& rel,
                                          const GroupByQuery& query,
                                          size_t sf_col,
                                          const ExecutorOptions& options) {
  const size_t num_aggs = query.aggregates.size();
  const std::vector<double>& sf = rel.DoubleColumn(sf_col);

  // Intern the group columns once; accumulate each group's scaled sums
  // over its rows in ascending row order, parallel across disjoint
  // groups (bit-identical to the serial scan for every thread count).
  auto index = GroupIndex::Build(rel, query.group_columns, options);
  if (!index.ok()) return index.status();
  const size_t num_groups = index->num_groups();
  // Empty scaled_sum[g] marks a group none of whose rows matched the
  // predicate; it is omitted, as the serial scan never created it.
  std::vector<std::vector<double>> scaled_sum(num_groups);
  std::vector<std::vector<double>> scaled_cnt(num_groups);
  GroupIndex::RowLists lists = index->GroupRows();
  std::vector<std::pair<size_t, size_t>> chunks = BalancedGroupChunks(
      lists.offsets, std::max<uint64_t>(rel.num_rows() / 64 + 1, 1024));
  // Cache-sized run slices: selection + survivor slots, one input slot,
  // the SF weight, and the gathered source cells per batched row. The
  // weighted folds stay strictly serial across slices.
  const uint32_t batch_rows = kernels::AdaptiveBatchRows(24 + 16 * num_aggs);
  ParallelFor(options.ResolvedThreads(), chunks.size(), [&](size_t c) {
    SelectionVector selected;
    std::vector<double> inputs;
    for (size_t g = chunks[c].first; g < chunks[c].second; ++g) {
      const uint32_t run_begin = static_cast<uint32_t>(lists.offsets[g]);
      const uint32_t run_end = static_cast<uint32_t>(lists.offsets[g + 1]);
      std::vector<double> sum;
      std::vector<double> cnt;
      for (uint32_t sb = run_begin; sb < run_end; sb += batch_rows) {
        const uint32_t se = std::min(run_end, sb + batch_rows);
        const uint32_t* sel = lists.rows.data() + sb;
        size_t n_sel = se - sb;
        if (query.predicate != nullptr) {
          selected.clear();
          query.predicate->MatchBatch(rel, sb, se, lists.rows.data(),
                                      &selected);
          sel = selected.data();
          n_sel = selected.size();
        }
        if (n_sel == 0) continue;
        if (sum.empty()) {
          sum.assign(num_aggs, 0.0);
          cnt.assign(num_aggs, 0.0);
        }
        if (inputs.size() < n_sel) inputs.resize(n_sel);
        for (size_t a = 0; a < num_aggs; ++a) {
          AggregateInputBatch(query.aggregates[a], rel, sel, n_sel,
                              inputs.data());
          for (size_t i = 0; i < n_sel; ++i) {
            const double w = sf[sel[i]];
            sum[a] += inputs[i] * w;
            cnt[a] += w;
          }
        }
      }
      if (sum.empty()) continue;  // No row of this group matched.
      scaled_sum[g] = std::move(sum);
      scaled_cnt[g] = std::move(cnt);
    }
  });

  ApproximateResult result(query.group_columns.size(), num_aggs);
  for (size_t g = 0; g < num_groups; ++g) {
    if (scaled_sum[g].empty()) continue;
    std::span<double> finals =
        result.Add(index->keys()[g], 0, GroupProvenance::kSampled);
    for (size_t a = 0; a < num_aggs; ++a) {
      switch (query.aggregates[a].kind) {
        case AggregateKind::kSum:
          finals[a] = scaled_sum[g][a];
          break;
        case AggregateKind::kCount:
          finals[a] = scaled_cnt[g][a];
          break;
        case AggregateKind::kAvg:
          finals[a] = scaled_cnt[g][a] > 0.0
                          ? scaled_sum[g][a] / scaled_cnt[g][a]
                          : 0.0;
          break;
        default:
          break;
      }
    }
  }
  // HAVING filters the *scaled estimates*, mirroring how Aqua's
  // rewritten SQL would apply it to the scaled expressions.
  result.FilterHaving(query.having);
  result.SortByKey();
  return result;
}

}  // namespace

Result<ApproximateResult> Rewriter::Answer(
    const GroupByQuery& query, RewriteStrategy strategy,
    const ExecutorOptions& options) const {
  CONGRESS_FAILPOINT("rewriter/answer");
  CONGRESS_RETURN_NOT_OK(
      ValidateForRewrite(query, integrated_.schema(), base_num_columns_));
  // Spans are named per strategy so a snapshot shows which physical plans
  // a workload actually exercised (and how their costs compare).
  switch (strategy) {
    case RewriteStrategy::kIntegrated: {
      CONGRESS_METRIC_INCR("rewriter.answers.integrated", 1);
      CONGRESS_SPAN(span, options.scope, "rewrite_integrated");
      return AnswerIntegrated(query, options.WithScope(span.scope()));
    }
    case RewriteStrategy::kNestedIntegrated: {
      CONGRESS_METRIC_INCR("rewriter.answers.nested_integrated", 1);
      CONGRESS_SPAN(span, options.scope, "rewrite_nested_integrated");
      return AnswerNestedIntegrated(query, options.WithScope(span.scope()));
    }
    case RewriteStrategy::kNormalized: {
      CONGRESS_METRIC_INCR("rewriter.answers.normalized", 1);
      CONGRESS_SPAN(span, options.scope, "rewrite_normalized");
      return AnswerNormalized(query, options.WithScope(span.scope()));
    }
    case RewriteStrategy::kKeyNormalized: {
      CONGRESS_METRIC_INCR("rewriter.answers.key_normalized", 1);
      CONGRESS_SPAN(span, options.scope, "rewrite_key_normalized");
      return AnswerKeyNormalized(query, options.WithScope(span.scope()));
    }
  }
  return Status::InvalidArgument("unknown rewrite strategy");
}

Result<ApproximateResult> Rewriter::AnswerIntegrated(
    const GroupByQuery& query, const ExecutorOptions& options) const {
  return AggregateScaled(integrated_, query, base_num_columns_, options);
}

Result<ApproximateResult> Rewriter::AnswerNestedIntegrated(
    const GroupByQuery& query, const ExecutorOptions& options) const {
  // Inner query: group by (query group columns, SF) and compute the raw
  // per-group sums/counts; outer query: one multiply by SF per inner
  // group (Figure 11 / Figure 13 of the paper).
  struct InnerAcc {
    std::vector<double> sum;     // raw sum(v) per aggregate.
    std::vector<uint64_t> cnt;   // raw count per aggregate.
  };
  const Table& rel = integrated_;
  const size_t sf_col = base_num_columns_;
  const size_t num_aggs = query.aggregates.size();

  // Inner key = group key + SF value, interned once. Each inner group's
  // raw sums accumulate over its rows in ascending row order (parallel
  // across disjoint inner groups — thread-count independent).
  std::vector<size_t> inner_cols = query.group_columns;
  inner_cols.push_back(sf_col);
  auto index = GroupIndex::Build(rel, inner_cols, options);
  if (!index.ok()) return index.status();
  const size_t num_inner = index->num_groups();
  std::vector<InnerAcc> inner(num_inner);
  GroupIndex::RowLists lists = index->GroupRows();
  std::vector<std::pair<size_t, size_t>> chunks = BalancedGroupChunks(
      lists.offsets, std::max<uint64_t>(rel.num_rows() / 64 + 1, 1024));
  const uint32_t batch_rows = kernels::AdaptiveBatchRows(24 + 16 * num_aggs);
  ParallelFor(options.ResolvedThreads(), chunks.size(), [&](size_t c) {
    SelectionVector selected;
    std::vector<double> inputs;
    for (size_t g = chunks[c].first; g < chunks[c].second; ++g) {
      const uint32_t run_begin = static_cast<uint32_t>(lists.offsets[g]);
      const uint32_t run_end = static_cast<uint32_t>(lists.offsets[g + 1]);
      InnerAcc& acc = inner[g];
      for (uint32_t sb = run_begin; sb < run_end; sb += batch_rows) {
        const uint32_t se = std::min(run_end, sb + batch_rows);
        const uint32_t* sel = lists.rows.data() + sb;
        size_t n_sel = se - sb;
        if (query.predicate != nullptr) {
          selected.clear();
          query.predicate->MatchBatch(rel, sb, se, lists.rows.data(),
                                      &selected);
          sel = selected.data();
          n_sel = selected.size();
        }
        if (n_sel == 0) continue;
        if (acc.sum.empty()) {
          acc.sum.assign(num_aggs, 0.0);
          acc.cnt.assign(num_aggs, 0);
        }
        if (inputs.size() < n_sel) inputs.resize(n_sel);
        for (size_t a = 0; a < num_aggs; ++a) {
          AggregateInputBatch(query.aggregates[a], rel, sel, n_sel,
                              inputs.data());
          for (size_t i = 0; i < n_sel; ++i) acc.sum[a] += inputs[i];
          acc.cnt[a] += n_sel;  // Integer count: order-free.
        }
      }
    }
  });

  // Outer query: scale each inner group once and re-aggregate, serially
  // in inner first-occurrence order (deterministic).
  struct OuterAcc {
    std::vector<double> scaled_sum;
    std::vector<double> scaled_cnt;
  };
  std::unordered_map<GroupKey, OuterAcc, GroupKeyHash> outer;
  for (size_t g = 0; g < num_inner; ++g) {
    const InnerAcc& acc = inner[g];
    if (acc.sum.empty()) continue;  // All rows failed the predicate.
    const GroupKey& inner_key = index->keys()[g];
    GroupKey key(inner_key.begin(), inner_key.end() - 1);
    double group_sf = inner_key.back().AsDouble();
    auto it = outer.find(key);
    if (it == outer.end()) {
      OuterAcc oacc;
      oacc.scaled_sum.assign(num_aggs, 0.0);
      oacc.scaled_cnt.assign(num_aggs, 0.0);
      it = outer.emplace(std::move(key), std::move(oacc)).first;
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      it->second.scaled_sum[a] += acc.sum[a] * group_sf;
      it->second.scaled_cnt[a] += static_cast<double>(acc.cnt[a]) * group_sf;
    }
  }

  ApproximateResult result(query.group_columns.size(), num_aggs);
  for (auto& [key, acc] : outer) {
    std::span<double> finals = result.Add(key, 0, GroupProvenance::kSampled);
    for (size_t a = 0; a < num_aggs; ++a) {
      switch (query.aggregates[a].kind) {
        case AggregateKind::kSum:
          finals[a] = acc.scaled_sum[a];
          break;
        case AggregateKind::kCount:
          finals[a] = acc.scaled_cnt[a];
          break;
        case AggregateKind::kAvg:
          finals[a] = acc.scaled_cnt[a] > 0.0
                          ? acc.scaled_sum[a] / acc.scaled_cnt[a]
                          : 0.0;
          break;
        default:
          break;
      }
    }
  }
  // HAVING filters the *scaled estimates*, mirroring how Aqua's
  // rewritten SQL would apply it to the scaled expressions.
  result.FilterHaving(query.having);
  result.SortByKey();
  return result;
}

Result<ApproximateResult> Rewriter::AnswerNormalized(
    const GroupByQuery& query, const ExecutorOptions& options) const {
  // Join SampRel with AuxRel on the sample's grouping columns; the join
  // output appends AuxRel's sf as the last column. This join is paid on
  // every query — the cost the paper's Table 3 attributes to Normalized.
  std::vector<size_t> right_keys(grouping_columns_.size());
  for (size_t i = 0; i < right_keys.size(); ++i) right_keys[i] = i;
  auto joined = HashJoin(normalized_samp_, grouping_columns_, normalized_aux_,
                         right_keys, options);
  if (!joined.ok()) return joined.status();
  return AggregateScaled(*joined, query, joined->num_columns() - 1, options);
}

Result<ApproximateResult> Rewriter::AnswerKeyNormalized(
    const GroupByQuery& query, const ExecutorOptions& options) const {
  // Join SampRel (with its gid column) against AuxRel(gid, sf) on the
  // single-attribute key — the paper's shorter join predicate.
  auto joined =
      HashJoin(key_samp_, {base_num_columns_}, key_aux_, {0}, options);
  if (!joined.ok()) return joined.status();
  return AggregateScaled(*joined, query, joined->num_columns() - 1, options);
}

}  // namespace congress
