#ifndef CONGRESS_STORAGE_VALUE_H_
#define CONGRESS_STORAGE_VALUE_H_

#include <cstdint>
#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "util/hash.h"

namespace congress {

/// Column data types supported by the storage layer. Dates are stored as
/// kInt64 day numbers (the TPC-D generator encodes l_shipdate this way).
enum class DataType {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

/// Returns "int64", "double", or "string".
const char* DataTypeToString(DataType type);

/// A dynamically typed scalar cell. Used at API boundaries (row appends,
/// group keys, predicate constants); hot loops use the typed column
/// accessors on Table instead.
class Value {
 public:
  Value() : data_(int64_t{0}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  DataType type() const { return static_cast<DataType>(data_.index()); }

  bool is_int64() const { return type() == DataType::kInt64; }
  bool is_double() const { return type() == DataType::kDouble; }
  bool is_string() const { return type() == DataType::kString; }

  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Numeric view: int64 widened to double; strings are a programming
  /// error (asserts via std::get).
  double ToNumeric() const;

  /// Renders the value for debugging and table printing.
  std::string ToString() const;

  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// Ordering compares type index first, then value; used only for
  /// deterministic result ordering, not SQL semantics.
  bool operator<(const Value& other) const;

  size_t Hash() const;

 private:
  std::variant<int64_t, double, std::string> data_;
};

/// A composite key identifying one group in a group-by result: one Value
/// per grouping column, in query column order.
using GroupKey = std::vector<Value>;

/// Hash functor for GroupKey, for use in unordered containers.
struct GroupKeyHash {
  size_t operator()(const GroupKey& key) const {
    size_t seed = key.size();
    for (const Value& v : key) HashCombine(&seed, v.Hash());
    return seed;
  }
};

/// GroupKey's operator< and operator== for keys viewed in place (such as
/// an ApproximateGroupRow's): column by column with Value's operators.
/// RowKeyLess (storage/table.h) orders table rows the same way.
inline bool KeyLess(std::span<const Value> a, std::span<const Value> b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}
inline bool KeyEqual(std::span<const Value> a, std::span<const Value> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Renders a group key as "(v1, v2, ...)".
std::string GroupKeyToString(std::span<const Value> key);

}  // namespace congress

#endif  // CONGRESS_STORAGE_VALUE_H_
