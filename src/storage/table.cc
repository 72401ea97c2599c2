#include "storage/table.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>

namespace congress {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (size_t i = 0; i < schema_.num_fields(); ++i) {
    switch (schema_.field(i).type) {
      case DataType::kInt64:
        columns_.emplace_back(std::vector<int64_t>{});
        break;
      case DataType::kDouble:
        columns_.emplace_back(std::vector<double>{});
        break;
      case DataType::kString:
        columns_.emplace_back(std::vector<std::string>{});
        break;
    }
  }
  encodings_.resize(schema_.num_fields());
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, schema has " +
        std::to_string(schema_.num_fields()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].type() != schema_.field(i).type) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema_.field(i).name + "': expected " +
          DataTypeToString(schema_.field(i).type) + ", got " +
          DataTypeToString(row[i].type()));
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    switch (row[i].type()) {
      case DataType::kInt64:
        std::get<std::vector<int64_t>>(columns_[i]).push_back(row[i].AsInt64());
        break;
      case DataType::kDouble:
        std::get<std::vector<double>>(columns_[i]).push_back(row[i].AsDouble());
        break;
      case DataType::kString: {
        const std::string& s = row[i].AsString();
        std::get<std::vector<std::string>>(columns_[i]).push_back(s);
        Encoding& enc = encodings_[i];
        enc.codes.push_back(enc.dict.GetOrAdd(s));
        break;
      }
    }
  }
  ++num_rows_;
  return Status::OK();
}

void Table::AppendRowFrom(const Table& src, size_t src_row) {
  assert(src.schema_.num_fields() == schema_.num_fields());
  assert(src_row < src.num_rows_);
  for (size_t i = 0; i < columns_.size(); ++i) {
    switch (schema_.field(i).type) {
      case DataType::kInt64:
        std::get<std::vector<int64_t>>(columns_[i])
            .push_back(std::get<std::vector<int64_t>>(src.columns_[i])[src_row]);
        break;
      case DataType::kDouble:
        std::get<std::vector<double>>(columns_[i])
            .push_back(std::get<std::vector<double>>(src.columns_[i])[src_row]);
        break;
      case DataType::kString: {
        const std::string& s =
            std::get<std::vector<std::string>>(src.columns_[i])[src_row];
        std::get<std::vector<std::string>>(columns_[i]).push_back(s);
        Encoding& enc = encodings_[i];
        enc.codes.push_back(enc.dict.GetOrAdd(s));
        break;
      }
    }
  }
  ++num_rows_;
}

Value Table::GetValue(size_t row, size_t col) const {
  assert(row < num_rows_ && col < columns_.size());
  switch (schema_.field(col).type) {
    case DataType::kInt64:
      return Value(std::get<std::vector<int64_t>>(columns_[col])[row]);
    case DataType::kDouble:
      return Value(std::get<std::vector<double>>(columns_[col])[row]);
    case DataType::kString:
      return Value(std::get<std::vector<std::string>>(columns_[col])[row]);
  }
  return Value();
}

GroupKey Table::KeyForRow(size_t row, const std::vector<size_t>& cols) const {
  GroupKey key;
  key.reserve(cols.size());
  for (size_t c : cols) key.push_back(GetValue(row, c));
  return key;
}

const std::vector<int64_t>& Table::Int64Column(size_t col) const {
  return std::get<std::vector<int64_t>>(columns_[col]);
}

const std::vector<double>& Table::DoubleColumn(size_t col) const {
  return std::get<std::vector<double>>(columns_[col]);
}

const std::vector<std::string>& Table::StringColumn(size_t col) const {
  return std::get<std::vector<std::string>>(columns_[col]);
}

std::vector<int64_t>& Table::MutableInt64Column(size_t col) {
  return std::get<std::vector<int64_t>>(columns_[col]);
}

std::vector<double>& Table::MutableDoubleColumn(size_t col) {
  return std::get<std::vector<double>>(columns_[col]);
}

std::vector<std::string>& Table::MutableStringColumn(size_t col) {
  return std::get<std::vector<std::string>>(columns_[col]);
}

void Table::SetRowCount(size_t n) {
#ifndef NDEBUG
  for (const auto& col : columns_) {
    std::visit([n](const auto& vec) { assert(vec.size() == n); }, col);
  }
#endif
  // Mutable string accessors bypass the dictionary; encode whatever they
  // appended since the last commit.
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (schema_.field(i).type == DataType::kString) EncodeTail(i);
  }
  num_rows_ = n;
}

void Table::EncodeTail(size_t col) {
  const auto& strings = std::get<std::vector<std::string>>(columns_[col]);
  Encoding& enc = encodings_[col];
  assert(enc.codes.size() <= strings.size());
  enc.codes.reserve(strings.size());
  for (size_t r = enc.codes.size(); r < strings.size(); ++r) {
    enc.codes.push_back(enc.dict.GetOrAdd(strings[r]));
  }
}

const std::vector<int32_t>& Table::CodeColumn(size_t col) const {
  assert(schema_.field(col).type == DataType::kString);
  assert(encodings_[col].codes.size() == num_rows_);
  return encodings_[col].codes;
}

const StringDictionary& Table::Dictionary(size_t col) const {
  assert(schema_.field(col).type == DataType::kString);
  return encodings_[col].dict;
}

void Table::AppendFrom(const Table& src) {
  assert(src.schema_.num_fields() == schema_.num_fields());
  for (size_t i = 0; i < columns_.size(); ++i) {
    switch (schema_.field(i).type) {
      case DataType::kInt64: {
        const auto& in = std::get<std::vector<int64_t>>(src.columns_[i]);
        auto& out = std::get<std::vector<int64_t>>(columns_[i]);
        out.insert(out.end(), in.begin(), in.end());
        break;
      }
      case DataType::kDouble: {
        const auto& in = std::get<std::vector<double>>(src.columns_[i]);
        auto& out = std::get<std::vector<double>>(columns_[i]);
        out.insert(out.end(), in.begin(), in.end());
        break;
      }
      case DataType::kString: {
        const auto& in = std::get<std::vector<std::string>>(src.columns_[i]);
        auto& out = std::get<std::vector<std::string>>(columns_[i]);
        out.insert(out.end(), in.begin(), in.end());
        // Re-intern against this table's dictionary: codes are
        // per-table, so src's codes don't transfer.
        EncodeTail(i);
        break;
      }
    }
  }
  num_rows_ += src.num_rows_;
}

double Table::NumericAt(size_t row, size_t col) const {
  switch (schema_.field(col).type) {
    case DataType::kInt64:
      return static_cast<double>(
          std::get<std::vector<int64_t>>(columns_[col])[row]);
    case DataType::kDouble:
      return std::get<std::vector<double>>(columns_[col])[row];
    case DataType::kString:
      assert(false && "NumericAt on string column");
      return 0.0;
  }
  return 0.0;
}

void Table::Reserve(size_t n) {
  for (auto& col : columns_) {
    std::visit([n](auto& vec) { vec.reserve(n); }, col);
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (schema_.field(i).type == DataType::kString) {
      encodings_[i].codes.reserve(n);
    }
  }
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream oss;
  oss << schema_.ToString() << ", " << num_rows_ << " rows\n";
  size_t shown = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) oss << " | ";
      oss << GetValue(r, c).ToString();
    }
    oss << "\n";
  }
  if (shown < num_rows_) oss << "... (" << (num_rows_ - shown) << " more)\n";
  return oss.str();
}

RowKeyLess::RowKeyLess(const Table& table, const std::vector<size_t>& columns,
                       std::span<const uint32_t> rows)
    : width_(columns.size()),
      types_(columns.size()),
      dicts_(columns.size(), nullptr),
      cells_(rows.size() * columns.size()) {
  for (size_t c = 0; c < width_; ++c) {
    const size_t col = columns[c];
    types_[c] = table.schema().field(col).type;
    Cell* out = cells_.data() + c;
    switch (types_[c]) {
      case DataType::kInt64: {
        const int64_t* data = table.Int64Column(col).data();
        for (size_t i = 0; i < rows.size(); ++i) {
          out[i * width_].i64 = data[rows[i]];
        }
        break;
      }
      case DataType::kDouble: {
        const double* data = table.DoubleColumn(col).data();
        for (size_t i = 0; i < rows.size(); ++i) {
          out[i * width_].f64 = data[rows[i]];
        }
        break;
      }
      case DataType::kString: {
        const int32_t* codes = table.CodeColumn(col).data();
        for (size_t i = 0; i < rows.size(); ++i) {
          out[i * width_].code = codes[rows[i]];
        }
        dicts_[c] = &table.Dictionary(col);
        break;
      }
    }
  }
  PackInt64Keys(rows.size());
}

void RowKeyLess::PackInt64Keys(size_t n) {
  if (n == 0) return;
  // Each column's offset from its minimum, in as many bits as its range
  // needs; later columns take the lower bits.
  std::vector<int64_t> mins(width_);
  std::vector<int> bits(width_);
  int total_bits = 0;
  for (size_t c = 0; c < width_; ++c) {
    if (types_[c] != DataType::kInt64) return;
    int64_t lo = cells_[c].i64;
    int64_t hi = lo;
    for (size_t i = 1; i < n; ++i) {
      lo = std::min(lo, cells_[i * width_ + c].i64);
      hi = std::max(hi, cells_[i * width_ + c].i64);
    }
    mins[c] = lo;
    bits[c] = std::bit_width(static_cast<uint64_t>(hi) -
                             static_cast<uint64_t>(lo));
    total_bits += bits[c];
  }
  if (total_bits > 64) return;
  packed_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    for (size_t c = 0; c < width_; ++c) {
      const uint64_t offset =
          static_cast<uint64_t>(cells_[i * width_ + c].i64) -
          static_cast<uint64_t>(mins[c]);
      key = bits[c] == 64 ? offset : (key << bits[c]) | offset;
    }
    packed_[i] = key;
  }
}

}  // namespace congress
