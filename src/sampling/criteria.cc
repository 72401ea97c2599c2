#include "sampling/criteria.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace congress {

Result<std::vector<double>> DispersionWeightVector(
    const Table& table, const GroupCensus& census, size_t value_column,
    VarianceCriterion criterion, const ExecutorOptions& options) {
  if (value_column >= table.num_columns()) {
    return Status::InvalidArgument("value column out of range");
  }
  if (table.schema().field(value_column).type == DataType::kString) {
    return Status::InvalidArgument("dispersion needs a numeric column");
  }
  CONGRESS_RETURN_NOT_OK(census.CheckTable(table));
  const size_t m = census.stats.num_groups();
  std::vector<double> sum(m, 0.0);
  std::vector<double> sum2(m, 0.0);
  std::vector<double> lo(m, std::numeric_limits<double>::infinity());
  std::vector<double> hi(m, -std::numeric_limits<double>::infinity());
  std::vector<uint64_t> n(m, 0);

  census.ForEachRow(options, [&](size_t slot, size_t row) {
    double v = table.NumericAt(row, value_column);
    sum[slot] += v;
    sum2[slot] += v * v;
    lo[slot] = std::min(lo[slot], v);
    hi[slot] = std::max(hi[slot], v);
    n[slot] += 1;
  });

  std::vector<double> weights(m, 0.0);
  for (size_t i = 0; i < m; ++i) {
    if (n[i] < 2) continue;
    double count = static_cast<double>(n[i]);
    double mean = sum[i] / count;
    double var = std::max(0.0, sum2[i] / count - mean * mean);
    double s = std::sqrt(var);
    switch (criterion) {
      case VarianceCriterion::kStdDev:
        weights[i] = s;
        break;
      case VarianceCriterion::kNeyman:
        weights[i] = count * s;
        break;
      case VarianceCriterion::kRange:
        weights[i] = hi[i] - lo[i];
        break;
    }
  }
  return weights;
}

Result<std::vector<double>> RangeDecayWeightVector(
    const GroupStatistics& stats, size_t key_position, size_t num_buckets,
    double decay_per_bucket) {
  if (key_position >= stats.num_grouping_attributes()) {
    return Status::InvalidArgument("key position out of range");
  }
  if (num_buckets == 0) {
    return Status::InvalidArgument("num_buckets must be positive");
  }
  if (decay_per_bucket <= 0.0) {
    return Status::InvalidArgument("decay factor must be positive");
  }
  // Rank the distinct values of the chosen key attribute.
  std::vector<Value> values;
  for (const GroupKey& key : stats.keys()) {
    values.push_back(key[key_position]);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());

  auto bucket_of = [&](const Value& v) -> size_t {
    size_t rank = static_cast<size_t>(
        std::lower_bound(values.begin(), values.end(), v) - values.begin());
    return std::min(num_buckets - 1, rank * num_buckets / values.size());
  };

  std::vector<double> weights(stats.num_groups());
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    double boost =
        std::pow(decay_per_bucket,
                 static_cast<double>(bucket_of(stats.keys()[i][key_position])));
    weights[i] = boost * static_cast<double>(stats.counts()[i]);
  }
  return weights;
}

Result<Allocation> AllocateCongressWithCriteria(
    const GroupStatistics& stats, double sample_size,
    const std::vector<std::vector<double>>& extra_criteria) {
  std::vector<std::vector<double>> vectors;
  for (const auto& grouping :
       AllSubGroupings(stats.num_grouping_attributes())) {
    vectors.push_back(GroupingWeightVector(stats, grouping));
  }
  for (const auto& extra : extra_criteria) {
    if (extra.size() != stats.num_groups()) {
      return Status::InvalidArgument(
          "criterion vector does not align with the group statistics");
    }
    vectors.push_back(extra);
  }
  return AllocateFromWeightVectors(stats, sample_size, vectors);
}

}  // namespace congress
