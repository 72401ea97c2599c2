#include "histogram/group_histogram.h"

#include <algorithm>

namespace congress {

Result<GroupHistogram> GroupHistogram::Build(
    const Table& table, const std::vector<size_t>& grouping_columns,
    const Options& options) {
  auto census = GroupCensus::Build(table, grouping_columns, options.execution);
  if (!census.ok()) return census.status();
  return Build(table, *census, options);
}

Result<GroupHistogram> GroupHistogram::Build(const Table& table,
                                             const GroupCensus& census,
                                             const Options& options) {
  const std::vector<size_t>& grouping_columns = census.index->columns();
  if (grouping_columns.empty()) {
    return Status::InvalidArgument("at least one grouping column required");
  }
  if (options.num_buckets == 0) {
    return Status::InvalidArgument("num_buckets must be positive");
  }
  for (size_t c : options.measure_columns) {
    if (c >= table.num_columns()) {
      return Status::InvalidArgument("measure column out of range");
    }
    if (table.schema().field(c).type == DataType::kString) {
      return Status::InvalidArgument("measure columns must be numeric");
    }
  }
  if (table.num_rows() == 0) {
    return Status::FailedPrecondition("table is empty");
  }
  CONGRESS_RETURN_NOT_OK(census.CheckTable(table));

  const GroupStatistics& stats = census.stats;

  GroupHistogram histogram;
  histogram.grouping_columns_ = grouping_columns;
  histogram.measure_columns_ = options.measure_columns;
  histogram.group_keys_ = stats.keys();

  // Per-group measure sums, in row order within each group.
  const size_t m = stats.num_groups();
  const size_t num_measures = options.measure_columns.size();
  std::vector<std::vector<double>> group_sums(
      m, std::vector<double>(num_measures, 0.0));
  census.ForEachRow(options.execution, [&](size_t slot, size_t row) {
    for (size_t k = 0; k < num_measures; ++k) {
      group_sums[slot][k] += table.NumericAt(row, options.measure_columns[k]);
    }
  });

  // Equi-depth bucketization over the sorted group sequence: close a
  // bucket when it holds >= total/num_buckets tuples.
  const double depth = static_cast<double>(stats.total_tuples()) /
                       static_cast<double>(options.num_buckets);
  Bucket current;
  current.first_group = 0;
  current.measure_sums.assign(num_measures, 0.0);
  for (size_t g = 0; g < m; ++g) {
    current.num_groups += 1;
    current.tuple_count += stats.counts()[g];
    for (size_t k = 0; k < num_measures; ++k) {
      current.measure_sums[k] += group_sums[g][k];
    }
    bool last_group = g + 1 == m;
    if (!last_group &&
        static_cast<double>(current.tuple_count) >= depth &&
        histogram.buckets_.size() + 1 < options.num_buckets) {
      histogram.buckets_.push_back(current);
      current = Bucket{};
      current.first_group = g + 1;
      current.measure_sums.assign(num_measures, 0.0);
    }
  }
  histogram.buckets_.push_back(current);
  return histogram;
}

Result<ApproximateResult> AnswerFromGroupTotals(
    const GroupByQuery& query, const std::vector<size_t>& grouping_columns,
    const std::vector<size_t>& measure_columns,
    const std::vector<GroupKey>& group_keys,
    const std::vector<std::vector<double>>& totals, const std::string& kind) {
  if (query.predicate != nullptr) {
    return Status::InvalidArgument(
        kind + " synopses cannot evaluate tuple predicates");
  }
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  // Each query grouping column must be one of the synopsis's grouping
  // columns; we project the finest keys.
  std::vector<size_t> positions;
  for (size_t col : query.group_columns) {
    auto it = std::find(grouping_columns.begin(), grouping_columns.end(), col);
    if (it == grouping_columns.end()) {
      return Status::InvalidArgument(
          "query groups by a column outside the " + kind + "'s dimensions");
    }
    positions.push_back(static_cast<size_t>(it - grouping_columns.begin()));
  }
  // Map aggregates to measure slots.
  std::vector<int> measure_slot(query.aggregates.size(), -1);
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const AggregateSpec& spec = query.aggregates[a];
    if (spec.kind == AggregateKind::kCount) continue;
    if (spec.kind != AggregateKind::kSum && spec.kind != AggregateKind::kAvg) {
      return Status::InvalidArgument(kind + " answers SUM/COUNT/AVG only");
    }
    auto it = std::find(measure_columns.begin(), measure_columns.end(),
                        spec.column);
    if (it == measure_columns.end()) {
      return Status::InvalidArgument(
          "aggregate column was not pre-aggregated into the " + kind);
    }
    measure_slot[a] = static_cast<int>(it - measure_columns.begin());
  }

  struct Acc {
    double count = 0.0;
    std::vector<double> sums;
  };
  std::unordered_map<GroupKey, Acc, GroupKeyHash> out_groups;
  for (size_t g = 0; g < group_keys.size(); ++g) {
    GroupKey key;
    key.reserve(positions.size());
    for (size_t pos : positions) key.push_back(group_keys[g][pos]);
    Acc& acc = out_groups[key];
    if (acc.sums.empty()) acc.sums.assign(measure_columns.size(), 0.0);
    acc.count += totals[0][g];
    for (size_t k = 0; k < measure_columns.size(); ++k) {
      acc.sums[k] += totals[1 + k][g];
    }
  }

  ApproximateResult result(query.group_columns.size(), query.aggregates.size());
  for (auto& [key, acc] : out_groups) {
    std::span<double> finals = result.Add(key, 0, GroupProvenance::kSampled);
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      switch (query.aggregates[a].kind) {
        case AggregateKind::kCount:
          finals[a] = acc.count;
          break;
        case AggregateKind::kSum:
          finals[a] = acc.sums[static_cast<size_t>(measure_slot[a])];
          break;
        case AggregateKind::kAvg:
          finals[a] = acc.count != 0.0
                          ? acc.sums[static_cast<size_t>(measure_slot[a])] /
                                acc.count
                          : 0.0;
          break;
        default:
          break;
      }
    }
  }
  result.FilterHaving(query.having);
  result.SortByKey();
  return result;
}

Result<ApproximateResult> GroupHistogram::Answer(
    const GroupByQuery& query) const {
  // Uniform-spread apportionment: each group in a bucket receives an
  // equal 1/num_groups share of the bucket's tuple count and sums.
  std::vector<std::vector<double>> totals(
      1 + measure_columns_.size(), std::vector<double>(group_keys_.size()));
  for (const Bucket& bucket : buckets_) {
    const double share = 1.0 / static_cast<double>(bucket.num_groups);
    for (size_t g = bucket.first_group;
         g < bucket.first_group + bucket.num_groups; ++g) {
      totals[0][g] = share * static_cast<double>(bucket.tuple_count);
      for (size_t k = 0; k < measure_columns_.size(); ++k) {
        totals[1 + k][g] = share * bucket.measure_sums[k];
      }
    }
  }
  return AnswerFromGroupTotals(query, grouping_columns_, measure_columns_,
                               group_keys_, totals, "histogram");
}

size_t GroupHistogram::StorageCells() const {
  // Per bucket: boundary group index, group count, tuple count, plus one
  // sum per measure.
  return buckets_.size() * (3 + measure_columns_.size());
}

}  // namespace congress
