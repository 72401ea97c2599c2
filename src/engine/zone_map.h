#ifndef CONGRESS_ENGINE_ZONE_MAP_H_
#define CONGRESS_ENGINE_ZONE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "storage/table.h"

namespace congress {

/// How the rows of a range relate to a predicate, as far as their zone
/// bounds prove: no row matches, every row matches, or only a filter can
/// tell (Predicate::Classify).
enum class ZoneMatch {
  kNone = 0,
  kAll = 1,
  kSome = 2,
};

/// The smallest and largest value of one column over some rows.
template <typename T>
struct ZoneBounds {
  T min;
  T max;
};

/// Per-zone minimum and maximum of every numeric column of one table, in
/// fixed zones of kZoneRows consecutive rows. A scan consults it to skip
/// the batches a predicate rules out and to take whole the batches it
/// admits entirely. Int64 columns keep int64 bounds and double columns
/// double bounds; a double zone holding a NaN is unknown, since a NaN
/// orders against nothing. String columns have no bounds. Built once per
/// published snapshot (AquaSnapshot::zones) and immutable after.
class ZoneMap {
 public:
  /// Rows per zone: AdaptiveBatchRows' floor, so a fold batch spans
  /// whole zones when its size is a multiple of this, and few otherwise.
  static constexpr uint32_t kZoneRows = 256;

  /// One typed min/max pass over every numeric column of `table`.
  static ZoneMap Build(const Table& table);

  size_t num_rows() const { return num_rows_; }
  size_t num_zones() const {
    return (num_rows_ + kZoneRows - 1) / kZoneRows;
  }
  /// Bytes of bounds held.
  size_t bytes() const;

  /// Bounds of int64 column `col` over the zones holding rows
  /// [begin, end), which may span several zones. nullopt when `col` is not
  /// an int64 column or the range is empty or out of bounds.
  std::optional<ZoneBounds<int64_t>> Int64Bounds(size_t col, uint32_t begin,
                                                 uint32_t end) const;
  /// Double form: also nullopt when a zone of the range holds a NaN.
  std::optional<ZoneBounds<double>> DoubleBounds(size_t col, uint32_t begin,
                                                 uint32_t end) const;
  /// The numeric view the filter kernels compare: an int64 column's bounds
  /// widened to double, a double column's as they are. Widening is
  /// monotone, so every widened cell lies within the widened bounds.
  std::optional<ZoneBounds<double>> NumericBounds(size_t col, uint32_t begin,
                                                  uint32_t end) const;

 private:
  /// One column's zones; both empty for a string column.
  struct Column {
    std::vector<ZoneBounds<int64_t>> ints;
    std::vector<ZoneBounds<double>> doubles;  ///< {NaN, NaN}: unknown.
  };

  size_t num_rows_ = 0;
  std::vector<Column> columns_;
};

}  // namespace congress

#endif  // CONGRESS_ENGINE_ZONE_MAP_H_
