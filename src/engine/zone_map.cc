#include "engine/zone_map.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "util/simd.h"

namespace congress {

namespace {

/// Zones of software prefetch ahead of the min/max. A publish reads each
/// column once, mostly from memory, and a single core's misses in flight
/// bound that read: with the prefetch, the pass over perfbench's 9.6 MB
/// of numeric cells took about half the time on a 4-vCPU x86 VM.
constexpr size_t kPrefetchZones = 4;

/// Bounds of each kZoneRows-row zone of cells[0..n). A double zone
/// holding a NaN gets {NaN, NaN}, "unknown".
template <typename T>
std::vector<ZoneBounds<T>> Zones(const T* cells, size_t n) {
  constexpr size_t kLineCells = 64 / sizeof(T);
  const simd::Ops& ops = simd::Active();
  std::vector<ZoneBounds<T>> zones((n + ZoneMap::kZoneRows - 1) /
                                   ZoneMap::kZoneRows);
  for (size_t z = 0; z < zones.size(); ++z) {
    const size_t first = z * ZoneMap::kZoneRows;
    const size_t rows = std::min<size_t>(ZoneMap::kZoneRows, n - first);
    const size_t ahead = first + kPrefetchZones * ZoneMap::kZoneRows;
    for (size_t i = ahead; i < std::min(n, ahead + ZoneMap::kZoneRows);
         i += kLineCells) {
      __builtin_prefetch(cells + i);
    }
    ZoneBounds<T>& bounds = zones[z];
    if constexpr (std::is_same_v<T, int64_t>) {
      ops.minmax_i64(cells + first, rows, &bounds.min, &bounds.max);
    } else if (ops.minmax_f64(cells + first, rows, &bounds.min,
                              &bounds.max)) {
      bounds.min = bounds.max = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return zones;
}

/// Bounds of one column's `zones` (of a `num_rows`-row table) over the
/// zones holding rows [begin, end); nullopt when the column has no zones,
/// the range is empty or out of bounds, or one of its zones is unknown.
template <typename T>
std::optional<ZoneBounds<T>> Covering(const std::vector<ZoneBounds<T>>& zones,
                                      size_t num_rows, uint32_t begin,
                                      uint32_t end) {
  if (zones.empty() || begin >= end || end > num_rows) return std::nullopt;
  const size_t first = begin / ZoneMap::kZoneRows;
  const size_t last = (end - 1) / ZoneMap::kZoneRows;
  ZoneBounds<T> out = zones[first];
  for (size_t z = first; z <= last; ++z) {
    if constexpr (std::is_floating_point_v<T>) {
      if (std::isnan(zones[z].min)) return std::nullopt;
    }
    out.min = std::min(out.min, zones[z].min);
    out.max = std::max(out.max, zones[z].max);
  }
  return out;
}

}  // namespace

ZoneMap ZoneMap::Build(const Table& table) {
  ZoneMap map;
  map.num_rows_ = table.num_rows();
  map.columns_.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    switch (table.schema().field(c).type) {
      case DataType::kInt64:
        map.columns_[c].ints =
            Zones(table.Int64Column(c).data(), map.num_rows_);
        break;
      case DataType::kDouble:
        map.columns_[c].doubles =
            Zones(table.DoubleColumn(c).data(), map.num_rows_);
        break;
      case DataType::kString:
        break;
    }
  }
  return map;
}

size_t ZoneMap::bytes() const {
  size_t total = 0;
  for (const Column& column : columns_) {
    total += column.ints.size() * sizeof(ZoneBounds<int64_t>) +
             column.doubles.size() * sizeof(ZoneBounds<double>);
  }
  return total;
}

std::optional<ZoneBounds<int64_t>> ZoneMap::Int64Bounds(size_t col,
                                                        uint32_t begin,
                                                        uint32_t end) const {
  if (col >= columns_.size()) return std::nullopt;
  return Covering(columns_[col].ints, num_rows_, begin, end);
}

std::optional<ZoneBounds<double>> ZoneMap::DoubleBounds(size_t col,
                                                        uint32_t begin,
                                                        uint32_t end) const {
  if (col >= columns_.size()) return std::nullopt;
  return Covering(columns_[col].doubles, num_rows_, begin, end);
}

std::optional<ZoneBounds<double>> ZoneMap::NumericBounds(size_t col,
                                                         uint32_t begin,
                                                         uint32_t end) const {
  if (auto ints = Int64Bounds(col, begin, end)) {
    return ZoneBounds<double>{static_cast<double>(ints->min),
                              static_cast<double>(ints->max)};
  }
  return DoubleBounds(col, begin, end);
}

}  // namespace congress
