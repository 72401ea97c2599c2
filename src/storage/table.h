#ifndef CONGRESS_STORAGE_TABLE_H_
#define CONGRESS_STORAGE_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "storage/schema.h"
#include "storage/string_dict.h"
#include "storage/value.h"
#include "util/status.h"

namespace congress {

/// An in-memory, append-only, column-oriented relation. This is the
/// storage substrate standing in for the paper's Oracle back-end: base
/// tables, sample tables (SampRel) and auxiliary scale-factor tables
/// (AuxRel) are all Tables.
///
/// Columns are stored as homogeneous vectors, so scans touch only the
/// columns a query needs — the property that makes the rewrite-strategy
/// timing comparisons (Table 3 / Figure 18 of the paper) meaningful.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_fields(); }

  /// Appends one row. The row must have one Value per column with
  /// matching types.
  Status AppendRow(const std::vector<Value>& row);

  /// Appends row `src_row` of `src` (same schema required for
  /// correctness; checked by assert in debug builds).
  void AppendRowFrom(const Table& src, size_t src_row);

  /// Returns cell (row, col) as a dynamically typed Value.
  Value GetValue(size_t row, size_t col) const;

  /// Builds the composite key of `row` over the given columns.
  GroupKey KeyForRow(size_t row, const std::vector<size_t>& cols) const;

  /// Typed column accessors (assert on type mismatch in debug builds).
  const std::vector<int64_t>& Int64Column(size_t col) const;
  const std::vector<double>& DoubleColumn(size_t col) const;
  const std::vector<std::string>& StringColumn(size_t col) const;
  std::vector<int64_t>& MutableInt64Column(size_t col);
  std::vector<double>& MutableDoubleColumn(size_t col);
  std::vector<std::string>& MutableStringColumn(size_t col);

  /// Commits `n` as the row count after columnar appends through the
  /// mutable accessors. Every column must already hold exactly `n` cells
  /// (checked by assert in debug builds). Mutable string-column access is
  /// append-only: this call dictionary-encodes the appended tail, so
  /// overwriting committed string cells in place would desynchronize the
  /// codes.
  void SetRowCount(size_t n);

  /// Dictionary codes of string column `col`, aligned with its rows:
  /// dense int32 ids in first-occurrence order, so code equality is
  /// string equality and a single-string-column group-by can use codes as
  /// group ids directly. Maintained on every append path.
  const std::vector<int32_t>& CodeColumn(size_t col) const;

  /// The dictionary backing CodeColumn(col).
  const StringDictionary& Dictionary(size_t col) const;

  /// Appends every row of `src` column-wise (same schema required for
  /// correctness; checked by assert in debug builds).
  void AppendFrom(const Table& src);

  /// Numeric view of cell (row, col): int64 widened to double.
  double NumericAt(size_t row, size_t col) const;

  /// Reserves capacity for n rows in every column.
  void Reserve(size_t n);

  /// Returns a new table with the same schema and no rows.
  Table CloneEmpty() const { return Table(schema_); }

  /// Renders up to `max_rows` rows for debugging.
  std::string ToString(size_t max_rows = 10) const;

 private:
  using ColumnData = std::variant<std::vector<int64_t>, std::vector<double>,
                                  std::vector<std::string>>;

  /// Dictionary encoding of one string column. Kept beside the string
  /// vector (not instead of it), so every existing accessor is untouched
  /// while the hot paths — group intern, equality predicates — run on
  /// int32 codes.
  struct Encoding {
    std::vector<int32_t> codes;
    StringDictionary dict;
  };

  /// Interns rows [codes.size(), strings.size()) of string column `col`.
  void EncodeTail(size_t col);

  Schema schema_;
  std::vector<ColumnData> columns_;
  /// One entry per column; only string columns carry data.
  std::vector<Encoding> encodings_;
  size_t num_rows_ = 0;
};

/// Orders the rows rows[0..n) of `table` by their values at `columns`
/// exactly as KeyLess orders the keys Table::KeyForRow would build: column
/// by column, each compared with Value's operator<, so every comparison
/// (NaN included) gives the same answer, without building the keys. The
/// comparator takes positions into `rows`: (a, b) compares rows[a] with
/// rows[b]. Given each group's first row, it sorts group ids into the
/// order a sort of the groups' keys gives.
///
/// The cells are copied once, row-major, so a sort touches one short run
/// of memory per compared row instead of one cache line per column. When
/// every column is int64 and the columns' value ranges over `rows` fit
/// together in 64 bits, each row's cells are packed into one unsigned
/// integer, most significant column first, whose order is the same
/// lexicographic order, and a comparison is one integer compare.
class RowKeyLess {
 public:
  RowKeyLess(const Table& table, const std::vector<size_t>& columns,
             std::span<const uint32_t> rows);

  bool operator()(uint32_t a, uint32_t b) const {
    if (!packed_.empty()) return packed_[a] < packed_[b];
    const Cell* x = cells_.data() + a * width_;
    const Cell* y = cells_.data() + b * width_;
    for (size_t c = 0; c < width_; ++c) {
      switch (types_[c]) {
        case DataType::kInt64:
          if (x[c].i64 < y[c].i64) return true;
          if (y[c].i64 < x[c].i64) return false;
          break;
        case DataType::kDouble:
          if (x[c].f64 < y[c].f64) return true;
          if (y[c].f64 < x[c].f64) return false;
          break;
        case DataType::kString: {
          const std::string& p = dicts_[c]->At(x[c].code);
          const std::string& q = dicts_[c]->At(y[c].code);
          if (p < q) return true;
          if (q < p) return false;
          break;
        }
      }
    }
    return false;
  }

 private:
  /// Fills packed_ for the n gathered rows when the key packs.
  void PackInt64Keys(size_t n);

  union Cell {
    int64_t i64;
    double f64;
    int32_t code;  ///< A string cell's dictionary code.
  };
  size_t width_;
  std::vector<DataType> types_;
  std::vector<const StringDictionary*> dicts_;  ///< Per column, or null.
  std::vector<Cell> cells_;  ///< rows.size() x columns.size(), row-major.
  std::vector<uint64_t> packed_;  ///< Per row, when the key packs.
};

}  // namespace congress

#endif  // CONGRESS_STORAGE_TABLE_H_
