#ifndef CONGRESS_ENGINE_AGGREGATE_H_
#define CONGRESS_ENGINE_AGGREGATE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "engine/expression.h"
#include "engine/kernels.h"
#include "util/status.h"

namespace congress {

/// Aggregate operators supported by the executor and the approximate
/// estimators. SUM/COUNT/AVG have unbiased stratified estimators
/// (Section 5.1 of the paper); MIN/MAX are exact-only best-effort.
enum class AggregateKind {
  kSum = 0,
  kCount = 1,
  kAvg = 2,
  kMin = 3,
  kMax = 4,
};

/// Returns "SUM", "COUNT", ...
const char* AggregateKindToString(AggregateKind kind);

/// One aggregate expression in a query's SELECT list: an operator applied
/// to a column or, when `expression` is set, to a scalar expression over
/// the row (e.g. SUM(l_extendedprice*(1-l_discount))). The column is
/// ignored for COUNT, which is COUNT(*).
struct AggregateSpec {
  AggregateSpec() = default;
  AggregateSpec(AggregateKind k, size_t c) : kind(k), column(c) {}
  AggregateSpec(AggregateKind k, ExpressionPtr e)
      : kind(k), expression(std::move(e)) {}

  AggregateKind kind = AggregateKind::kCount;
  size_t column = 0;
  ExpressionPtr expression;  ///< Overrides `column` when non-null.

  std::string ToString() const;

  bool operator==(const AggregateSpec& other) const {
    if (kind != other.kind) return false;
    if ((expression == nullptr) != (other.expression == nullptr)) {
      return false;
    }
    if (expression != nullptr) {
      return expression->ToString() == other.expression->ToString();
    }
    return column == other.column;
  }
};

/// The per-row input value an aggregate consumes: 1 for COUNT, the
/// expression value when present, else the column value.
inline double AggregateInput(const AggregateSpec& spec, const Table& table,
                             size_t row) {
  if (spec.kind == AggregateKind::kCount) return 1.0;
  if (spec.expression != nullptr) return spec.expression->Eval(table, row);
  return table.NumericAt(row, spec.column);
}

/// Batch form of AggregateInput: fills out[0..n) with the aggregate's
/// input at rows[0..n). Bit-identical to the per-row form — COUNT fills
/// the constant 1, expressions run EvalBatch, columns gather through the
/// typed kernel.
inline void AggregateInputBatch(const AggregateSpec& spec, const Table& table,
                                const uint32_t* rows, size_t n, double* out) {
  if (spec.kind == AggregateKind::kCount) {
    kernels::FillConstant(1.0, n, out);
  } else if (spec.expression != nullptr) {
    spec.expression->EvalBatch(table, rows, n, out);
  } else {
    kernels::GatherNumeric(table, spec.column, rows, n, out);
  }
}

/// The distinct value inputs of a SELECT list. Aggregates over the same
/// column, or over the same expression object, read the same values, so a
/// scan gathers and folds each input once; COUNT reads none.
struct AggregateInputs {
  std::vector<const AggregateSpec*> specs;  ///< One per distinct input.
  std::vector<size_t> input_of;  ///< Aggregate -> its input (0 for COUNT).
};
AggregateInputs DistinctInputs(const std::vector<AggregateSpec>& aggregates);

/// Validates an aggregate against a schema: COUNT needs nothing;
/// expression aggregates validate their expression; column aggregates
/// need an in-range numeric column.
Status ValidateAggregate(const AggregateSpec& spec, const Schema& schema);

/// Streaming accumulator for one (group, aggregate) pair over exact data:
/// the per-value reference whose bits ExecuteExact's fused fold
/// reproduces (executor_test's NaiveExact folds with it).
class Accumulator {
 public:
  explicit Accumulator(AggregateKind kind) : kind_(kind) {}

  /// Folds one input value in.
  void Add(double value) {
    sum_ += value;
    count_ += 1;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  /// Final aggregate value. AVG of an empty group is 0 by convention
  /// (executor never emits empty groups).
  double Finish() const;

  int64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  AggregateKind kind_;
  double sum_ = 0.0;
  int64_t count_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace congress

#endif  // CONGRESS_ENGINE_AGGREGATE_H_
