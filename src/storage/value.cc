#include "storage/value.h"

#include <cassert>
#include <sstream>

namespace congress {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

double Value::ToNumeric() const {
  if (is_int64()) return static_cast<double>(AsInt64());
  return AsDouble();
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kInt64:
      return std::to_string(AsInt64());
    case DataType::kDouble: {
      std::ostringstream oss;
      oss << AsDouble();
      return oss.str();
    }
    case DataType::kString:
      return AsString();
  }
  return "";
}

bool Value::operator<(const Value& other) const {
  if (data_.index() != other.data_.index()) {
    return data_.index() < other.data_.index();
  }
  return data_ < other.data_;
}

size_t Value::Hash() const {
  size_t seed = data_.index();
  switch (type()) {
    case DataType::kInt64:
      HashCombineValue(&seed, AsInt64());
      break;
    case DataType::kDouble: {
      // operator== treats -0.0 and 0.0 as equal, so they must hash
      // equally too. libstdc++'s std::hash<double> happens to normalize
      // zero already, but that is not guaranteed by the standard (MSVC
      // hashes the bit pattern), so normalize explicitly: equal keys
      // with different hashes would silently split a group in any
      // hash-keyed container.
      double d = AsDouble();
      if (d == 0.0) d = 0.0;
      HashCombineValue(&seed, d);
      break;
    }
    case DataType::kString:
      HashCombineValue(&seed, AsString());
      break;
  }
  return seed;
}

std::string GroupKeyToString(std::span<const Value> key) {
  std::string out = "(";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out += ", ";
    out += key[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace congress
