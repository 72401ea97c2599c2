#include "tpcd/lineitem.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/random.h"
#include "util/zipf.h"

namespace congress::tpcd {

namespace {

/// Draws `count` distinct random values in [0, bound).
std::vector<int64_t> DistinctValues(uint64_t count, int64_t bound,
                                    Random* rng) {
  std::unordered_set<int64_t> seen;
  std::vector<int64_t> values;
  values.reserve(count);
  while (values.size() < count) {
    int64_t v = static_cast<int64_t>(rng->UniformInt(bound));
    if (seen.insert(v).second) values.push_back(v);
  }
  return values;
}

/// Distinct values per grouping column for a request of `num_groups`.
uint64_t DistinctPerColumn(uint64_t num_groups) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(std::cbrt(static_cast<double>(num_groups)))));
}

}  // namespace

std::vector<size_t> LineitemGroupingColumns() {
  return {kLReturnFlag, kLLineStatus, kLShipDate};
}

std::vector<std::string> LineitemGroupingColumnNames() {
  return {"l_returnflag", "l_linestatus", "l_shipdate"};
}

uint64_t RealizedGroupCount(uint64_t num_groups) {
  const uint64_t d = DistinctPerColumn(num_groups);
  return d * d * d;
}

Result<LineitemData> GenerateLineitem(const LineitemConfig& config) {
  if (config.num_tuples == 0) {
    return Status::InvalidArgument("num_tuples must be positive");
  }
  if (config.num_groups == 0) {
    return Status::InvalidArgument("num_groups must be positive");
  }
  if (config.group_skew_z < 0.0 || config.value_skew_z < 0.0) {
    return Status::InvalidArgument("skew parameters must be non-negative");
  }

  Random rng(config.seed);
  const uint64_t d = DistinctPerColumn(config.num_groups);
  const uint64_t realized_groups = RealizedGroupCount(config.num_groups);
  if (realized_groups > config.num_tuples) {
    return Status::InvalidArgument(
        "more groups than tuples: " + std::to_string(realized_groups) +
        " > " + std::to_string(config.num_tuples));
  }

  // Random distinct domain values per grouping column (the paper draws
  // them randomly rather than using 0..d-1).
  std::vector<int64_t> flags = DistinctValues(d, 1'000'000, &rng);
  std::vector<int64_t> statuses = DistinctValues(d, 1'000'000, &rng);
  std::vector<int64_t> dates = DistinctValues(d, 1'000'000, &rng);

  // Zipf group sizes over the d^3 groups, assigned to the cross-product
  // enumeration in shuffled order so the biggest group is not always the
  // lexicographically first combination.
  std::vector<uint64_t> sizes =
      ZipfGroupSizes(config.num_tuples, realized_groups, config.group_skew_z);
  std::vector<uint64_t> group_order(realized_groups);
  for (uint64_t i = 0; i < realized_groups; ++i) group_order[i] = i;
  rng.Shuffle(&group_order);

  // Aggregate value distributions: Zipf-ranked domains, matching the
  // paper's skew z = 0.86 in the measured columns.
  ZipfDistribution quantity_dist(50, config.value_skew_z);
  ZipfDistribution price_dist(1000, config.value_skew_z);

  Schema schema({Field{"l_id", DataType::kInt64},
                 Field{"l_returnflag", DataType::kInt64},
                 Field{"l_linestatus", DataType::kInt64},
                 Field{"l_shipdate", DataType::kInt64},
                 Field{"l_quantity", DataType::kDouble},
                 Field{"l_extendedprice", DataType::kDouble}});

  // Generate columns into flat vectors first (cheap), shuffle row order
  // via a permutation, then append to the table.
  const size_t n = static_cast<size_t>(config.num_tuples);
  std::vector<int64_t> col_flag(n), col_status(n), col_date(n);
  std::vector<double> col_qty(n), col_price(n);

  size_t row = 0;
  for (uint64_t rank = 0; rank < realized_groups; ++rank) {
    uint64_t g = group_order[rank];
    uint64_t fi = g / (d * d);
    uint64_t si = (g / d) % d;
    uint64_t di = g % d;
    for (uint64_t k = 0; k < sizes[rank]; ++k) {
      col_flag[row] = flags[fi];
      col_status[row] = statuses[si];
      col_date[row] = dates[di];
      col_qty[row] = static_cast<double>(quantity_dist.Sample(&rng) + 1);
      col_price[row] =
          static_cast<double>(price_dist.Sample(&rng) + 1) * 100.0;
      ++row;
    }
  }

  // Shuffle rows so the one-pass samplers see a random arrival order and
  // l_id ranges select group-independent subsets.
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  rng.Shuffle(&perm);

  Table table(schema);
  table.Reserve(n);
  std::vector<Value> values(6);
  for (size_t i = 0; i < n; ++i) {
    size_t src = perm[i];
    values[0] = Value(static_cast<int64_t>(i + 1));  // l_id: 1, 2, ...
    values[1] = Value(col_flag[src]);
    values[2] = Value(col_status[src]);
    values[3] = Value(col_date[src]);
    values[4] = Value(col_qty[src]);
    values[5] = Value(col_price[src]);
    CONGRESS_RETURN_NOT_OK(table.AppendRow(values));
  }

  LineitemData data;
  data.table = std::move(table);
  data.realized_num_groups = realized_groups;
  data.distinct_per_column = d;
  return data;
}

}  // namespace congress::tpcd
