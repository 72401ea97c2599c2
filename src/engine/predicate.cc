#include "engine/predicate.h"

#include <sstream>
#include <utility>

namespace congress {

namespace {

std::string ColName(const Schema* schema, size_t col) {
  if (schema != nullptr && col < schema->num_fields()) {
    return schema->field(col).name;
  }
  return "col" + std::to_string(col);
}

/// Runs a comparison against `rhs` over the widened double view of a
/// numeric column, through the SIMD-dispatched filter kernels. Returns
/// false — leaving `sel_out` untouched — when the column is not numeric,
/// so the caller can fall back to the scalar default and misbehave
/// exactly as Matches would.
bool FilterNumericCompare(const Table& table, size_t col, uint32_t begin,
                          uint32_t end, const uint32_t* sel_in,
                          SelectionVector* sel_out, simd::Cmp op,
                          double rhs) {
  switch (table.schema().field(col).type) {
    case DataType::kInt64:
      kernels::FilterCompareInt64(table.Int64Column(col).data(), begin, end,
                                  sel_in, op, rhs, sel_out);
      return true;
    case DataType::kDouble:
      kernels::FilterCompareDouble(table.DoubleColumn(col).data(), begin, end,
                                   sel_in, op, rhs, sel_out);
      return true;
    case DataType::kString:
      return false;
  }
  return false;
}

/// Range form of FilterNumericCompare: keeps lo <= v <= hi.
bool FilterNumericRange(const Table& table, size_t col, uint32_t begin,
                        uint32_t end, const uint32_t* sel_in,
                        SelectionVector* sel_out, double lo, double hi) {
  switch (table.schema().field(col).type) {
    case DataType::kInt64:
      kernels::FilterRangeInt64(table.Int64Column(col).data(), begin, end,
                                sel_in, lo, hi, sel_out);
      return true;
    case DataType::kDouble:
      kernels::FilterRangeDouble(table.DoubleColumn(col).data(), begin, end,
                                 sel_in, lo, hi, sel_out);
      return true;
    case DataType::kString:
      return false;
  }
  return false;
}

/// String equality/inequality against a constant, on dictionary codes:
/// one dictionary probe resolves the constant, then every row is an int32
/// compare (SIMD) instead of a string compare. A constant absent from the
/// dictionary short-circuits: no row can equal it.
void FilterStringEquals(const Table& table, size_t col, uint32_t begin,
                        uint32_t end, const uint32_t* sel_in,
                        SelectionVector* sel_out, const std::string& want,
                        bool keep_equal) {
  const int32_t code = table.Dictionary(col).Find(want);
  if (code == StringDictionary::kNoCode) {
    if (!keep_equal) {
      kernels::FilterGeneric(begin, end, sel_in, sel_out,
                             [](uint32_t) { return true; });
    }
    return;
  }
  kernels::FilterStringCode(table.CodeColumn(col), begin, end, sel_in, code,
                            keep_equal, sel_out);
}

simd::Cmp ToSimdCmp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return simd::Cmp::kEq;
    case CompareOp::kNe: return simd::Cmp::kNe;
    case CompareOp::kLt: return simd::Cmp::kLt;
    case CompareOp::kLe: return simd::Cmp::kLe;
    case CompareOp::kGt: return simd::Cmp::kGt;
    case CompareOp::kGe: return simd::Cmp::kGe;
  }
  return simd::Cmp::kEq;
}

ZoneMatch Decide(bool none, bool all) {
  return none ? ZoneMatch::kNone : all ? ZoneMatch::kAll : ZoneMatch::kSome;
}

/// What [min, max] bounds prove about `v op rhs` for every v within them:
/// the compare holds for all when it holds at the bound where it is
/// hardest, and for none when it fails at the bound where it is easiest.
/// Written as negations, a NaN `rhs` (which every compare but <> fails)
/// gives kNone, and kAll for <>.
ZoneMatch CompareBounds(const ZoneBounds<double>& b, simd::Cmp op,
                        double rhs) {
  const bool straddles = b.min <= rhs && b.max >= rhs;
  const bool constant = b.min == rhs && b.max == rhs;
  switch (op) {
    case simd::Cmp::kEq: return Decide(!straddles, constant);
    case simd::Cmp::kNe: return Decide(constant, !straddles);
    case simd::Cmp::kLt: return Decide(!(b.min < rhs), b.max < rhs);
    case simd::Cmp::kLe: return Decide(!(b.min <= rhs), b.max <= rhs);
    case simd::Cmp::kGt: return Decide(!(b.max > rhs), b.min > rhs);
    case simd::Cmp::kGe: return Decide(!(b.max >= rhs), b.min >= rhs);
  }
  return ZoneMatch::kSome;
}

/// Classify for the compare FilterNumericCompare applies to the numeric
/// view of column `col`.
ZoneMatch ClassifyNumericCompare(const ZoneMap& zones, size_t col,
                                 uint32_t begin, uint32_t end, simd::Cmp op,
                                 double rhs) {
  const auto b = zones.NumericBounds(col, begin, end);
  return b ? CompareBounds(*b, op, rhs) : ZoneMatch::kSome;
}

class TruePredicate final : public Predicate {
 public:
  bool Matches(const Table&, size_t) const override { return true; }

  void MatchBatch(const Table&, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    kernels::FilterGeneric(begin, end, sel_in, sel_out,
                           [](uint32_t) { return true; });
  }

  ZoneMatch Classify(const ZoneMap&, uint32_t, uint32_t) const override {
    return ZoneMatch::kAll;
  }

  std::string ToString(const Schema*) const override { return "TRUE"; }
};

class RangePredicate final : public Predicate {
 public:
  RangePredicate(size_t col, double lo, double hi)
      : col_(col), lo_(lo), hi_(hi) {}

  bool Matches(const Table& table, size_t row) const override {
    double v = table.NumericAt(row, col_);
    return v >= lo_ && v <= hi_;
  }

  void MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    if (!FilterNumericRange(table, col_, begin, end, sel_in, sel_out, lo_,
                            hi_)) {
      Predicate::MatchBatch(table, begin, end, sel_in, sel_out);
    }
  }

  /// The kernel keeps lo <= v && v <= hi on the numeric view.
  ZoneMatch Classify(const ZoneMap& zones, uint32_t begin,
                     uint32_t end) const override {
    const auto b = zones.NumericBounds(col_, begin, end);
    if (!b) return ZoneMatch::kSome;
    return Decide(!(b->max >= lo_) || !(b->min <= hi_),
                  b->min >= lo_ && b->max <= hi_);
  }

  std::string ToString(const Schema* schema) const override {
    std::ostringstream oss;
    oss << ColName(schema, col_) << " BETWEEN " << lo_ << " AND " << hi_;
    return oss.str();
  }

 private:
  size_t col_;
  double lo_;
  double hi_;
};

class EqualsPredicate final : public Predicate {
 public:
  EqualsPredicate(size_t col, Value value)
      : col_(col), value_(std::move(value)) {}

  bool Matches(const Table& table, size_t row) const override {
    return table.GetValue(row, col_) == value_;
  }

  void MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    // Value::operator== is false across types, so a type-mismatched
    // constant matches nothing — no per-row work at all.
    if (table.schema().field(col_).type != value_.type()) return;
    switch (value_.type()) {
      case DataType::kInt64:
        kernels::FilterEqualsInt64(table.Int64Column(col_).data(), begin, end,
                                   sel_in, value_.AsInt64(), sel_out);
        break;
      case DataType::kDouble:
        kernels::FilterCompareDouble(table.DoubleColumn(col_).data(), begin,
                                     end, sel_in, simd::Cmp::kEq,
                                     value_.AsDouble(), sel_out);
        break;
      case DataType::kString:
        FilterStringEquals(table, col_, begin, end, sel_in, sel_out,
                           value_.AsString(), /*keep_equal=*/true);
        break;
    }
  }

  /// An int64 constant is compared exactly, as FilterEqualsInt64 does:
  /// widened bounds could round onto a constant beyond 2^53.
  ZoneMatch Classify(const ZoneMap& zones, uint32_t begin,
                     uint32_t end) const override {
    switch (value_.type()) {
      case DataType::kInt64: {
        const auto b = zones.Int64Bounds(col_, begin, end);
        if (!b) return ZoneMatch::kSome;
        const int64_t want = value_.AsInt64();
        return Decide(want < b->min || want > b->max,
                      b->min == want && b->max == want);
      }
      case DataType::kDouble: {
        // Not the numeric view: a double constant matches no int64 cell.
        const auto b = zones.DoubleBounds(col_, begin, end);
        return b ? CompareBounds(*b, simd::Cmp::kEq, value_.AsDouble())
                 : ZoneMatch::kSome;
      }
      case DataType::kString:
        break;
    }
    return ZoneMatch::kSome;
  }

  std::string ToString(const Schema* schema) const override {
    return ColName(schema, col_) + " = " + value_.ToString();
  }

 private:
  size_t col_;
  Value value_;
};

class AndPredicate final : public Predicate {
 public:
  explicit AndPredicate(std::vector<PredicatePtr> children)
      : children_(std::move(children)) {}

  bool Matches(const Table& table, size_t row) const override {
    for (const auto& child : children_) {
      if (!child->Matches(table, row)) return false;
    }
    return true;
  }

  void MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    // Chained filtering: each child's output selection is the next
    // child's candidate slice. Predicates are pure, so this yields the
    // same set, in the same order, as the scalar short-circuit AND.
    if (children_.empty()) {
      kernels::FilterGeneric(begin, end, sel_in, sel_out,
                             [](uint32_t) { return true; });
      return;
    }
    if (children_.size() == 1) {
      children_[0]->MatchBatch(table, begin, end, sel_in, sel_out);
      return;
    }
    SelectionVector current;
    SelectionVector next;
    children_[0]->MatchBatch(table, begin, end, sel_in, &current);
    for (size_t i = 1; i + 1 < children_.size(); ++i) {
      next.clear();
      children_[i]->MatchBatch(table, 0,
                               static_cast<uint32_t>(current.size()),
                               current.data(), &next);
      std::swap(current, next);
    }
    children_.back()->MatchBatch(table, 0,
                                 static_cast<uint32_t>(current.size()),
                                 current.data(), sel_out);
  }

  ZoneMatch Classify(const ZoneMap& zones, uint32_t begin,
                     uint32_t end) const override {
    bool all = true;
    for (const auto& child : children_) {
      const ZoneMatch match = child->Classify(zones, begin, end);
      if (match == ZoneMatch::kNone) return ZoneMatch::kNone;
      all = all && match == ZoneMatch::kAll;
    }
    return all ? ZoneMatch::kAll : ZoneMatch::kSome;
  }

  std::string ToString(const Schema* schema) const override {
    std::string out = "(";
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += " AND ";
      out += children_[i]->ToString(schema);
    }
    out += ")";
    return out;
  }

 private:
  std::vector<PredicatePtr> children_;
};

class LessEqualPredicate final : public Predicate {
 public:
  LessEqualPredicate(size_t col, double bound) : col_(col), bound_(bound) {}

  bool Matches(const Table& table, size_t row) const override {
    return table.NumericAt(row, col_) <= bound_;
  }

  void MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    if (!FilterNumericCompare(table, col_, begin, end, sel_in, sel_out,
                              simd::Cmp::kLe, bound_)) {
      Predicate::MatchBatch(table, begin, end, sel_in, sel_out);
    }
  }

  ZoneMatch Classify(const ZoneMap& zones, uint32_t begin,
                     uint32_t end) const override {
    return ClassifyNumericCompare(zones, col_, begin, end, simd::Cmp::kLe,
                                  bound_);
  }

  std::string ToString(const Schema* schema) const override {
    std::ostringstream oss;
    oss << ColName(schema, col_) << " <= " << bound_;
    return oss.str();
  }

 private:
  size_t col_;
  double bound_;
};

class ComparisonPredicate final : public Predicate {
 public:
  ComparisonPredicate(size_t col, CompareOp op, Value value)
      : col_(col), op_(op), value_(std::move(value)) {}

  bool Matches(const Table& table, size_t row) const override {
    if (op_ == CompareOp::kEq || op_ == CompareOp::kNe) {
      bool eq;
      if (value_.is_string()) {
        eq = table.GetValue(row, col_) == value_;
      } else {
        // Numeric equality compares values, not representations, so
        // `col = 5` matches an int64 5 and a double 5.0 alike.
        eq = table.NumericAt(row, col_) == value_.ToNumeric();
      }
      return op_ == CompareOp::kEq ? eq : !eq;
    }
    double lhs = table.NumericAt(row, col_);
    double rhs = value_.ToNumeric();
    switch (op_) {
      case CompareOp::kLt:
        return lhs < rhs;
      case CompareOp::kLe:
        return lhs <= rhs;
      case CompareOp::kGt:
        return lhs > rhs;
      case CompareOp::kGe:
        return lhs >= rhs;
      default:
        return false;
    }
  }

  void MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    const DataType col_type = table.schema().field(col_).type;
    if ((op_ == CompareOp::kEq || op_ == CompareOp::kNe) &&
        value_.is_string()) {
      const bool want_eq = op_ == CompareOp::kEq;
      if (col_type != DataType::kString) {
        // GetValue == value_ is false across types: = matches nothing,
        // <> matches everything.
        if (!want_eq) {
          kernels::FilterGeneric(begin, end, sel_in, sel_out,
                                 [](uint32_t) { return true; });
        }
        return;
      }
      FilterStringEquals(table, col_, begin, end, sel_in, sel_out,
                         value_.AsString(), want_eq);
      return;
    }
    if (!FilterNumericCompare(table, col_, begin, end, sel_in, sel_out,
                              ToSimdCmp(op_), value_.ToNumeric())) {
      // Non-numeric column under a numeric comparison: defer to the
      // scalar loop, which fails in exactly the way Matches always has.
      Predicate::MatchBatch(table, begin, end, sel_in, sel_out);
    }
  }

  ZoneMatch Classify(const ZoneMap& zones, uint32_t begin,
                     uint32_t end) const override {
    if (value_.is_string()) return ZoneMatch::kSome;
    return ClassifyNumericCompare(zones, col_, begin, end, ToSimdCmp(op_),
                                  value_.ToNumeric());
  }

  std::string ToString(const Schema* schema) const override {
    return ColName(schema, col_) + " " + CompareOpToString(op_) + " " +
           value_.ToString();
  }

 private:
  size_t col_;
  CompareOp op_;
  Value value_;
};

}  // namespace

void Predicate::MatchBatch(const Table& table, uint32_t begin, uint32_t end,
                           const uint32_t* sel_in,
                           SelectionVector* sel_out) const {
  kernels::FilterGeneric(
      begin, end, sel_in, sel_out,
      [&](uint32_t row) { return Matches(table, row); });
}

ZoneMatch Predicate::Classify(const ZoneMap&, uint32_t, uint32_t) const {
  return ZoneMatch::kSome;
}

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

PredicatePtr MakeComparisonPredicate(size_t col, CompareOp op, Value value) {
  return std::make_shared<ComparisonPredicate>(col, op, std::move(value));
}

PredicatePtr MakeTruePredicate() { return std::make_shared<TruePredicate>(); }

PredicatePtr MakeRangePredicate(size_t col, double lo, double hi) {
  return std::make_shared<RangePredicate>(col, lo, hi);
}

PredicatePtr MakeEqualsPredicate(size_t col, Value value) {
  return std::make_shared<EqualsPredicate>(col, std::move(value));
}

PredicatePtr MakeAndPredicate(std::vector<PredicatePtr> children) {
  return std::make_shared<AndPredicate>(std::move(children));
}

PredicatePtr MakeLessEqualPredicate(size_t col, double bound) {
  return std::make_shared<LessEqualPredicate>(col, bound);
}

}  // namespace congress
