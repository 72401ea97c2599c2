#ifndef CONGRESS_TPCD_LINEITEM_H_
#define CONGRESS_TPCD_LINEITEM_H_

#include <cstdint>
#include <vector>

#include "storage/table.h"
#include "util/status.h"

namespace congress::tpcd {

/// Column indices of the generated lineitem projection (Section 7.1.1 of
/// the paper): l_id is the synthetic primary key the authors added for
/// the Qg0 range predicates; the three grouping (dimensional) attributes
/// follow; the two aggregation (measured) attributes close the schema.
enum LineitemColumn : size_t {
  kLId = 0,
  kLReturnFlag = 1,
  kLLineStatus = 2,
  kLShipDate = 3,
  kLQuantity = 4,
  kLExtendedPrice = 5,
};

/// The paper's Table 1 experiment parameters.
struct LineitemConfig {
  /// Table size T: 100K – 6M tuples (default 1M).
  uint64_t num_tuples = 1'000'000;

  /// Number of groups NG at the finest grouping (default 1000). Realized
  /// as d^3 groups with d = round(NG^(1/3)) distinct values per grouping
  /// column, mirroring the generator in the paper ("the number of
  /// distinct values in each of these columns becomes n^(1/3)").
  uint64_t num_groups = 1000;

  /// Group-size skew z in [0, 1.5] (default 0.86, the paper's 90-10).
  double group_skew_z = 0.86;

  /// Skew of the aggregated columns (fixed at 0.86 in the paper).
  double value_skew_z = 0.86;

  uint64_t seed = 42;
};

/// Result of generation: the table plus the realized group structure.
struct LineitemData {
  Table table;
  /// Realized number of finest groups (d^3; may differ from the request).
  uint64_t realized_num_groups = 0;
  /// Distinct values per grouping column (d).
  uint64_t distinct_per_column = 0;
};

/// The d^3 finest groups a request for `num_groups` realizes, with
/// d = round(num_groups^(1/3)) and at least 1.
uint64_t RealizedGroupCount(uint64_t num_groups);

/// Generates the skewed TPC-D lineitem projection described in Section
/// 7.1.1: all d^3 combinations of the grouping-column values form the
/// finest groups; group sizes follow Zipf(group_skew_z); l_quantity and
/// l_extendedprice follow Zipf(value_skew_z) over their value domains;
/// rows are shuffled and l_id assigned sequentially afterwards, so a
/// range predicate on l_id selects a group-independent uniform subset.
Result<LineitemData> GenerateLineitem(const LineitemConfig& config);

/// The grouping column indices {l_returnflag, l_linestatus, l_shipdate}.
std::vector<size_t> LineitemGroupingColumns();

/// The grouping column names, for SynopsisConfig.
std::vector<std::string> LineitemGroupingColumnNames();

}  // namespace congress::tpcd

#endif  // CONGRESS_TPCD_LINEITEM_H_
