#include "engine/query.h"

#include <algorithm>
#include <cassert>
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

const char* GroupProvenanceToString(GroupProvenance provenance) {
  switch (provenance) {
    case GroupProvenance::kSampled:
      return "sampled";
    case GroupProvenance::kExact:
      return "exact";
    case GroupProvenance::kCombined:
      return "combined";
  }
  return "unknown";
}

namespace {

/// False when `key` holds a NaN, which compares unordered under
/// GroupKey's operator< and so ends any binary-searchable run.
bool Orderable(std::span<const Value> key) {
  for (const Value& v : key) {
    if (v.is_double() && std::isnan(v.AsDouble())) return false;
  }
  return true;
}

}  // namespace

bool ApproximateResult::KeysSearchable() const {
  for (size_t i = 0; i < num_groups(); ++i) {
    if (!Orderable(KeyOf(i))) return false;
    if (i > 0 && !KeyLess(KeyOf(i - 1), KeyOf(i))) return false;
  }
  return true;
}

void ApproximateResult::Reserve(size_t num_groups) {
  keys_.reserve(num_groups * key_width_);
  numbers_.reserve(num_groups * 3 * num_aggs_);
  support_.reserve(num_groups);
  provenance_.reserve(num_groups);
}

std::span<double> ApproximateResult::Add(std::span<const Value> key,
                                         uint64_t support,
                                         GroupProvenance provenance) {
  assert(key.size() == key_width_);
  const size_t n = num_groups();
  searchable_ = Orderable(key) &&
                (n == 0 || (searchable_ && KeyLess(KeyOf(n - 1), key)));
  keys_.insert(keys_.end(), key.begin(), key.end());
  numbers_.resize(numbers_.size() + 3 * num_aggs_, 0.0);
  support_.push_back(support);
  provenance_.push_back(provenance);
  return {numbers_.data() + n * 3 * num_aggs_, 3 * num_aggs_};
}

std::optional<ApproximateGroupRow> ApproximateResult::Find(
    std::span<const Value> key) const {
  const size_t n = num_groups();
  size_t i = 0;
  if (searchable_) {
    size_t hi = n;
    while (i < hi) {
      const size_t mid = i + (hi - i) / 2;
      if (KeyLess(KeyOf(mid), key)) {
        i = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (i < n && !KeyEqual(KeyOf(i), key)) i = n;
  } else {
    while (i < n && !KeyEqual(KeyOf(i), key)) ++i;
  }
  if (i == n) return std::nullopt;
  return row(i);
}

void ApproximateResult::SortByKey() {
  if (searchable_) return;
  // std::sort compares and moves the indices exactly as it would the
  // groups they stand for, so this is the order a sort of the groups
  // gives, NaN keys included.
  std::vector<size_t> order(num_groups());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return KeyLess(KeyOf(a), KeyOf(b));
  });
  ApproximateResult sorted(key_width_, num_aggs_);
  sorted.Reserve(num_groups());
  for (size_t i : order) {
    const std::span<double> numbers =
        sorted.Add(KeyOf(i), support_[i], provenance_[i]);
    std::ranges::copy(row_numbers(i), numbers.begin());
  }
  *this = std::move(sorted);
}

void ApproximateResult::FilterHaving(
    const std::vector<HavingCondition>& having) {
  if (having.empty()) return;
  const size_t width = 3 * num_aggs_;
  size_t kept = 0;
  for (size_t i = 0; i < num_groups(); ++i) {
    if (!PassesHaving(having, numbers_.data() + i * width, num_aggs_)) {
      continue;
    }
    if (kept != i) {
      std::move(keys_.begin() + i * key_width_,
                keys_.begin() + (i + 1) * key_width_,
                keys_.begin() + kept * key_width_);
      std::copy_n(numbers_.begin() + i * width, width,
                  numbers_.begin() + kept * width);
      support_[kept] = support_[i];
      provenance_[kept] = provenance_[i];
    }
    ++kept;
  }
  keys_.resize(kept * key_width_);
  numbers_.resize(kept * width);
  support_.resize(kept);
  provenance_.resize(kept);
  searchable_ = searchable_ || KeysSearchable();
}

void ApproximateResult::WidenBounds(double factor) {
  const size_t width = 3 * num_aggs_;
  for (size_t at = 0; at < numbers_.size(); at += width) {
    for (size_t k = num_aggs_; k < width; ++k) numbers_[at + k] *= factor;
  }
}

std::string ApproximateResult::ToString(size_t max_rows) const {
  std::ostringstream oss;
  size_t shown = std::min(max_rows, num_groups());
  for (size_t i = 0; i < shown; ++i) {
    const ApproximateGroupRow r = row(i);
    oss << GroupKeyToString(r.key) << " ->";
    for (size_t a = 0; a < r.estimates.size(); ++a) {
      oss << " " << r.estimates[a] << " (+-" << r.bounds[a] << ")";
    }
    oss << " [" << r.support << " tuples]\n";
  }
  if (shown < num_groups()) {
    oss << "... (" << (num_groups() - shown) << " more groups)\n";
  }
  return oss.str();
}

}  // namespace congress
