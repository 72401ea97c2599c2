#include "engine/query.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace congress {

bool HavingCondition::Matches(double aggregate_value) const {
  switch (op) {
    case CompareOp::kEq:
      return aggregate_value == value;
    case CompareOp::kNe:
      return aggregate_value != value;
    case CompareOp::kLt:
      return aggregate_value < value;
    case CompareOp::kLe:
      return aggregate_value <= value;
    case CompareOp::kGt:
      return aggregate_value > value;
    case CompareOp::kGe:
      return aggregate_value >= value;
  }
  return false;
}

std::string HavingCondition::ToString() const {
  std::ostringstream oss;
  oss << "agg" << aggregate_index << " " << CompareOpToString(op) << " "
      << value;
  return oss.str();
}

std::string QueryBudget::ToString() const {
  std::ostringstream oss;
  if (has_error_budget()) {
    oss << "WITHIN " << relative_error * 100.0 << "% CONFIDENCE "
        << confidence * 100.0 << "%";
  } else if (has_time_budget()) {
    oss << "WITHIN " << time_budget_ms << " MS";
  }
  return oss.str();
}

std::string GroupByQuery::ToString() const {
  std::ostringstream oss;
  oss << "SELECT ";
  for (size_t i = 0; i < group_columns.size(); ++i) {
    oss << "col" << group_columns[i] << ", ";
  }
  for (size_t i = 0; i < aggregates.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << aggregates[i].ToString();
  }
  if (predicate != nullptr) oss << " WHERE " << predicate->ToString();
  if (!group_columns.empty()) {
    oss << " GROUP BY ";
    for (size_t i = 0; i < group_columns.size(); ++i) {
      if (i > 0) oss << ", ";
      oss << "col" << group_columns[i];
    }
  }
  if (!having.empty()) {
    oss << " HAVING ";
    for (size_t i = 0; i < having.size(); ++i) {
      if (i > 0) oss << " AND ";
      oss << having[i].ToString();
    }
  }
  if (budget.active()) oss << " " << budget.ToString();
  return oss.str();
}

bool PassesHaving(const std::vector<HavingCondition>& having,
                  const double* values, size_t num_values) {
  for (const HavingCondition& cond : having) {
    if (cond.aggregate_index >= num_values ||
        !cond.Matches(values[cond.aggregate_index])) {
      return false;
    }
  }
  return true;
}

namespace result_rows {

bool Orderable(std::span<const Value> key) {
  for (const Value& v : key) {
    if (v.is_double() && std::isnan(v.AsDouble())) return false;
  }
  return true;
}

}  // namespace result_rows

void QueryResult::Add(GroupKey key, std::vector<double> aggregates) {
  searchable_ = searchable_ && result_rows::Orderable(key) &&
                (rows_.empty() || KeyLess(rows_.back().key, key));
  rows_.push_back(GroupResult{std::move(key), std::move(aggregates)});
}

const GroupResult* QueryResult::Find(std::span<const Value> key) const {
  const size_t i = result_rows::Find(rows_.size(), searchable_, KeyAt(), key);
  return i < rows_.size() ? &rows_[i] : nullptr;
}

void QueryResult::SortByKey() {
  if (searchable_) return;
  std::vector<GroupResult> sorted;
  sorted.reserve(rows_.size());
  for (size_t i : result_rows::SortedOrder(rows_.size(), KeyAt())) {
    sorted.push_back(std::move(rows_[i]));
  }
  rows_ = std::move(sorted);
  searchable_ = result_rows::Searchable(rows_.size(), KeyAt());
}

void QueryResult::FilterHaving(const std::vector<HavingCondition>& having) {
  if (having.empty()) return;
  auto fails = [&having](const GroupResult& row) {
    return !PassesHaving(having, row.aggregates.data(), row.aggregates.size());
  };
  rows_.erase(std::remove_if(rows_.begin(), rows_.end(), fails), rows_.end());
  searchable_ = searchable_ || result_rows::Searchable(rows_.size(), KeyAt());
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::ostringstream oss;
  size_t shown = std::min(max_rows, rows_.size());
  for (size_t i = 0; i < shown; ++i) {
    oss << GroupKeyToString(rows_[i].key) << " ->";
    for (double a : rows_[i].aggregates) oss << " " << a;
    oss << "\n";
  }
  if (shown < rows_.size()) {
    oss << "... (" << (rows_.size() - shown) << " more groups)\n";
  }
  return oss.str();
}

}  // namespace congress
