#include "engine/aggregate.h"

namespace congress {

const char* AggregateKindToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kSum:
      return "SUM";
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kAvg:
      return "AVG";
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kMax:
      return "MAX";
  }
  return "UNKNOWN";
}

std::string AggregateSpec::ToString() const {
  if (kind == AggregateKind::kCount) return "COUNT(*)";
  if (expression != nullptr) {
    return std::string(AggregateKindToString(kind)) + "(" +
           expression->ToString() + ")";
  }
  return std::string(AggregateKindToString(kind)) + "(col" +
         std::to_string(column) + ")";
}

AggregateInputs DistinctInputs(const std::vector<AggregateSpec>& aggregates) {
  AggregateInputs inputs;
  inputs.input_of.assign(aggregates.size(), 0);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggregateSpec& spec = aggregates[a];
    if (spec.kind == AggregateKind::kCount) continue;
    size_t k = 0;
    while (k < inputs.specs.size() &&
           !(inputs.specs[k]->expression == spec.expression &&
             inputs.specs[k]->column == spec.column)) {
      ++k;
    }
    if (k == inputs.specs.size()) inputs.specs.push_back(&spec);
    inputs.input_of[a] = k;
  }
  return inputs;
}

Status ValidateAggregate(const AggregateSpec& spec, const Schema& schema) {
  if (spec.kind == AggregateKind::kCount) return Status::OK();
  if (spec.expression != nullptr) return spec.expression->Validate(schema);
  if (spec.column >= schema.num_fields()) {
    return Status::InvalidArgument("aggregate column out of range");
  }
  if (schema.field(spec.column).type == DataType::kString) {
    return Status::InvalidArgument("cannot aggregate string column '" +
                                   schema.field(spec.column).name + "'");
  }
  return Status::OK();
}

double Accumulator::Finish() const {
  switch (kind_) {
    case AggregateKind::kSum:
      return sum_;
    case AggregateKind::kCount:
      return static_cast<double>(count_);
    case AggregateKind::kAvg:
      return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
    case AggregateKind::kMin:
      return count_ > 0 ? min_ : 0.0;
    case AggregateKind::kMax:
      return count_ > 0 ? max_ : 0.0;
  }
  return 0.0;
}

}  // namespace congress
