#include "core/estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

#include "engine/kernels.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "storage/group_index.h"

namespace congress {

const char* BoundMethodToString(BoundMethod method) {
  switch (method) {
    case BoundMethod::kStandardError:
      return "StandardError";
    case BoundMethod::kChebyshev:
      return "Chebyshev";
    case BoundMethod::kHoeffding:
      return "Hoeffding";
  }
  return "Unknown";
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
  searchable_ = result_rows::Orderable(key) &&
                (n == 0 || (searchable_ && KeyLess(row(n - 1).key, key)));
  keys_.insert(keys_.end(), key.begin(), key.end());
  numbers_.resize(numbers_.size() + 3 * num_aggs_, 0.0);
  support_.push_back(support);
  provenance_.push_back(provenance);
  return {numbers_.data() + n * 3 * num_aggs_, 3 * num_aggs_};
}

std::optional<ApproximateGroupRow> ApproximateResult::Find(
    std::span<const Value> key) const {
  const size_t i = result_rows::Find(num_groups(), searchable_, KeyAt(), key);
  if (i == num_groups()) return std::nullopt;
  return row(i);
}

void ApproximateResult::SortByKey() {
  if (searchable_) return;
  ApproximateResult sorted(key_width_, num_aggs_);
  sorted.Reserve(num_groups());
  for (size_t i : result_rows::SortedOrder(num_groups(), KeyAt())) {
    const ApproximateGroupRow r = row(i);
    std::ranges::copy(row_numbers(i),
                      sorted.Add(r.key, r.support, r.provenance).begin());
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
  searchable_ = searchable_ || result_rows::Searchable(num_groups(), KeyAt());
}

void ApproximateResult::WidenBounds(double factor) {
  const size_t width = 3 * num_aggs_;
  for (size_t at = 0; at < numbers_.size(); at += width) {
    for (size_t k = num_aggs_; k < width; ++k) numbers_[at + k] *= factor;
  }
}

QueryResult ApproximateResult::ToQueryResult() const {
  QueryResult out;
  for (const ApproximateGroupRow& row : rows()) {
    out.Add(GroupKey(row.key.begin(), row.key.end()),
            std::vector<double>(row.estimates.begin(), row.estimates.end()));
  }
  out.SortByKey();
  return out;
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

namespace {

/// One output group's scaled COUNT terms, summed over its units; they
/// depend only on each unit's match count, so every aggregate shares them.
struct CountRollUp {
  uint64_t support = 0;  // Matching sample tuples.
  double est = 0.0;      // Scaled COUNT.
  double var = 0.0;
  double hoeff_c2 = 0.0;  // Sum of per-draw squared ranges (each 1).
};

/// One output group's scaled terms for one aggregate input.
struct InputRollUp {
  double est = 0.0;  // Scaled SUM of the input.
  double var = 0.0;
  double cov = 0.0;       // With the COUNT variable, for AVG.
  double hoeff_c2 = 0.0;  // Sum of per-draw squared ranges.
};

/// The units one estimate folds and how they roll up. Each unit is a
/// subset of one stratum that lies in one output group: unit u owns the
/// sample rows rows[offsets[u] .. offsets[u+1]), in ascending row order,
/// all of stratum StratumOf(u) and output group group_of[u]; unit_of_row
/// maps each sample row back to its unit, and first_row[g] is group g's
/// first sample row, whose values are the group's key.
///
/// A query grouping on grouping columns folds the strata themselves (the
/// paper's Nested-Integrated plan, §5), since a row's stratum fixes its
/// output group: the layout is the moments', and the projection is the
/// memoized roll-up's, so no row or key is hashed. Any other query folds
/// the groups of a GroupIndex over its columns plus the grouping columns,
/// which the units then own.
struct FoldUnits {
  std::span<const uint64_t> offsets;
  std::span<const uint32_t> rows;
  const uint32_t* unit_of_row = nullptr;
  std::span<const uint32_t> group_of;
  std::span<const uint32_t> first_row;
  std::vector<uint32_t> stratum_of;  // Empty when unit u is stratum u.
  std::vector<char> stratum_excluded;  // Empty when no stratum is.
  GroupIndex index;  // The interned units' arrays.
  GroupIndex::RowLists lists;
  GroupIndex::Projection projection;

  uint32_t StratumOf(size_t u) const {
    return stratum_of.empty() ? static_cast<uint32_t>(u) : stratum_of[u];
  }
  bool Excluded(size_t u) const {
    return !stratum_excluded.empty() && stratum_excluded[StratumOf(u)];
  }
};

FoldUnits RollUpUnits(const StratifiedSample& sample,
                      const SampleMoments& moments,
                      const GroupedExpansionTerms& rollup) {
  FoldUnits units;
  units.offsets = moments.stratum_offsets();
  units.rows = moments.stratum_rows();
  units.unit_of_row = sample.row_strata().data();
  units.group_of = rollup.group_of;
  units.first_row = rollup.first_row;
  return units;
}

Result<FoldUnits> InternedUnits(const StratifiedSample& sample,
                                const std::vector<size_t>& group_columns,
                                const ExecutorOptions& execution) {
  std::vector<size_t> columns = group_columns;
  for (size_t c : sample.grouping_columns()) {
    if (std::find(columns.begin(), columns.end(), c) == columns.end()) {
      columns.push_back(c);
    }
  }
  FoldUnits units;
  auto index = GroupIndex::Build(sample.rows(), columns, execution);
  if (!index.ok()) return index.status();
  units.index = std::move(index).value();
  CONGRESS_SPAN(project_span, execution.scope, "project");
  auto projection = units.index.Project(group_columns);
  if (!projection.ok()) return projection.status();
  units.projection = std::move(projection).value();
  units.lists = units.index.GroupRows();
  units.offsets = units.lists.offsets;
  units.rows = units.lists.rows;
  units.unit_of_row = units.index.row_ids().data();
  units.group_of = units.projection.group_of;
  units.first_row = units.projection.first_rows;
  units.stratum_of.resize(units.group_of.size());
  for (size_t u = 0; u < units.group_of.size(); ++u) {
    units.stratum_of[u] = sample.row_strata()[units.index.first_rows()[u]];
  }
  return units;
}

/// Folds the units' rows that match `predicate` (all when null), in
/// ascending row order, into matches[u] and cells[u * inputs.size() + k],
/// parallel across balanced unit chunks. A cell is one (output group,
/// stratum) pair, so its sums see the same rows in the same order as a
/// serial per-row scan — and as the moments — for every thread count.
/// Each stretch of consecutive included units folds as one row range in
/// cache-sized batches; excluded strata are skipped a unit at a time.
void FoldRows(const Table& rows, const Predicate* predicate,
              const FoldUnits& units,
              const std::vector<const AggregateSpec*>& inputs,
              const ExecutorOptions& execution, obs::Scope* scope,
              uint64_t* matches, ColumnMoments* cells) {
  const size_t num_inputs = inputs.size();
  std::vector<std::pair<size_t, size_t>> chunks = BalancedGroupChunks(
      units.offsets, std::max<uint64_t>(rows.num_rows() / 64 + 1, 1024));
  const bool tally_on = kernels::kObsEnabled && execution.scope != nullptr;
  // Per batched row: selection slot, one input slot, and the gathered
  // source cells.
  const uint32_t batch_rows =
      kernels::AdaptiveBatchRows(16 + 16 * std::max<size_t>(num_inputs, 1));
  std::vector<kernels::KernelTally> tallies(chunks.size());
  ParallelFor(execution.ResolvedThreads(), chunks.size(), [&](size_t c) {
    kernels::KernelTally& tally = tallies[c];
    SelectionVector selected;
    std::vector<double> values;
    size_t u = chunks[c].first;
    while (u < chunks[c].second) {
      if (units.Excluded(u)) {
        ++u;
        continue;
      }
      const uint32_t run_begin = static_cast<uint32_t>(units.offsets[u]);
      while (u < chunks[c].second && !units.Excluded(u)) ++u;
      const uint32_t run_end = static_cast<uint32_t>(units.offsets[u]);
      for (uint32_t sb = run_begin; sb < run_end; sb += batch_rows) {
        const uint32_t se = std::min(run_end, sb + batch_rows);
        const uint32_t* sel = units.rows.data() + sb;
        size_t n_sel = se - sb;
        if (predicate != nullptr) {
          selected.clear();
          const uint64_t t0 = tally_on ? kernels::TallyClockNanos() : 0;
          predicate->MatchBatch(rows, sb, se, units.rows.data(), &selected);
          if (tally_on) tally.match_nanos += kernels::TallyClockNanos() - t0;
          tally.match_batches += 1;
          tally.match_rows_in += se - sb;
          tally.match_rows_selected += selected.size();
          sel = selected.data();
          n_sel = selected.size();
        }
        if (n_sel == 0) continue;
        // Rows of one unit are adjacent; count each unit's stretch.
        for (size_t i = 0; i < n_sel;) {
          const uint32_t unit = units.unit_of_row[sel[i]];
          const size_t begin = i;
          while (++i < n_sel && units.unit_of_row[sel[i]] == unit) {
          }
          matches[unit] += i - begin;
        }
        if (values.size() < n_sel) values.resize(n_sel);
        for (size_t k = 0; k < num_inputs; ++k) {
          const uint64_t t0 = tally_on ? kernels::TallyClockNanos() : 0;
          AggregateInputBatch(*inputs[k], rows, sel, n_sel, values.data());
          if (tally_on) tally.eval_nanos += kernels::TallyClockNanos() - t0;
          tally.eval_batches += 1;
          tally.eval_rows += n_sel;
          // Fold each unit's stretch in registers, resuming from and
          // storing back to its cell.
          size_t i = 0;
          while (i < n_sel) {
            const uint32_t unit = units.unit_of_row[sel[i]];
            ColumnMoments cs = cells[unit * num_inputs + k];
            const size_t begin = i;
            for (; i < n_sel && units.unit_of_row[sel[i]] == unit; ++i) {
              const double v = values[i];
              cs.sum += v;
              cs.sum_sq += v * v;
              cs.max_abs = std::max(cs.max_abs, std::fabs(v));
            }
            cs.count += i - begin;
            cells[unit * num_inputs + k] = cs;
          }
        }
      }
    }
  });
  kernels::KernelTally merged;
  for (const kernels::KernelTally& t : tallies) merged.Merge(t);
  kernels::RecordKernelTally(merged, scope);
}

/// Sample covariance between the SUM variable z_v and the COUNT variable
/// z_c (= 1 for matches), times the stratified scaling N(N-n)/n.
double StratumCovariance(double big_n, double n, uint64_t matches,
                         double sum_v) {
  if (n < 2.0) return 0.0;
  double m = static_cast<double>(matches);
  // sum z_v*z_c = sum_v; means are sum_v/n and m/n.
  double scov = (sum_v - sum_v * m / n) / (n - 1.0);
  double fpc = big_n - n;
  if (fpc < 0.0) fpc = 0.0;
  return big_n * fpc * scov / n;
}

}  // namespace

BoundHalfWidth::BoundHalfWidth(BoundMethod method, double confidence)
    : method_(method) {
  double delta = 1.0 - confidence;
  if (delta <= 0.0) delta = 1e-6;
  cheb_ = 1.0 / std::sqrt(delta);
  // Hoeffding: P(|est - E| >= t) <= 2 exp(-2 t^2 / sum_i c_i^2) with
  // c_i the per-draw range of the scaled variable; inverting at the
  // target confidence gives t = sqrt(ln(2/(1-conf))/2 * sum c_i^2).
  hoeff_ln_ = std::log(2.0 / (1.0 - confidence)) / 2.0;
}

Result<ApproximateResult> EstimateGroupBy(const StratifiedSample& sample,
                                          const SampleMoments& moments,
                                          const GroupByQuery& query,
                                          const EstimatorOptions& options,
                                          const ExecutorOptions& execution) {
  const Table& rows = sample.rows();
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  for (size_t c : query.group_columns) {
    if (c >= rows.num_columns()) {
      return Status::InvalidArgument("group column out of range");
    }
  }
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateKind::kMin || spec.kind == AggregateKind::kMax) {
      return Status::InvalidArgument(
          "MIN/MAX have no unbiased sampling estimator; use ExecuteExact");
    }
    CONGRESS_RETURN_NOT_OK(ValidateAggregate(spec, rows.schema()));
  }
  if (options.confidence <= 0.0 || options.confidence >= 1.0) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  for (const HavingCondition& cond : query.having) {
    if (cond.aggregate_index >= query.aggregates.size()) {
      return Status::InvalidArgument("HAVING references a missing aggregate");
    }
  }
  if (rows.num_rows() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("sample exceeds 2^32 rows");
  }
  if (moments.num_strata() != sample.strata().size() ||
      moments.num_rows() != rows.num_rows()) {
    return Status::InvalidArgument(
        "moments were not computed from this sample");
  }
  CONGRESS_METRIC_INCR("estimator.queries", 1);
  CONGRESS_SPAN(estimate_span, execution.scope, "estimate");

  const size_t num_aggs = query.aggregates.size();
  const auto& strata = sample.strata();

  // Planner combined plans exclude outlier strata from the sampled tail.
  std::vector<char> stratum_excluded;
  if (!options.excluded_strata.empty()) {
    stratum_excluded.assign(strata.size(), 0);
    for (uint32_t s : options.excluded_strata) {
      if (s >= strata.size()) {
        return Status::InvalidArgument("excluded stratum out of range");
      }
      stratum_excluded[s] = 1;
    }
  }

  const AggregateInputs distinct = DistinctInputs(query.aggregates);
  const std::vector<const AggregateSpec*>& inputs = distinct.specs;
  const std::vector<size_t>& input_of = distinct.input_of;
  const size_t num_inputs = inputs.size();

  // A query covered by the grouping columns folds strata through the
  // memoized roll-up; without a predicate, over plain columns, every
  // stratum's cells are its moments and no sample row is read.
  const std::vector<size_t>& grouping = sample.grouping_columns();
  std::vector<size_t> positions;
  for (size_t c : query.group_columns) {
    auto it = std::find(grouping.begin(), grouping.end(), c);
    if (it == grouping.end()) break;
    positions.push_back(static_cast<size_t>(it - grouping.begin()));
  }
  const bool covered = positions.size() == query.group_columns.size();
  const bool from_moments =
      covered && query.predicate == nullptr &&
      std::ranges::none_of(inputs, [](const AggregateSpec* spec) {
        return spec->expression != nullptr;
      });
  CONGRESS_SPAN(rollup_span, from_moments ? estimate_span.scope() : nullptr,
                "rollup");
  const GroupedExpansionTerms* rollup = nullptr;
  FoldUnits units;
  if (covered) {
    CONGRESS_METRIC_INCR("estimator.covered_queries", 1);
    rollup = &moments.GroupedFor(sample, positions);
    units = RollUpUnits(sample, moments, *rollup);
  } else {
    auto interned = InternedUnits(sample, query.group_columns,
                                  execution.WithScope(estimate_span.scope()));
    if (!interned.ok()) return interned.status();
    units = std::move(interned).value();
  }
  const size_t num_units = units.group_of.size();
  const size_t num_groups = units.first_row.size();
  units.stratum_excluded = std::move(stratum_excluded);

  // Each unit's match count and, per input, the moments of its matching
  // rows' values.
  std::vector<uint64_t> matches(num_units, 0);
  std::vector<ColumnMoments> cells;
  std::vector<size_t> slots(num_inputs);
  if (from_moments) {
    for (size_t u = 0; u < num_units; ++u) {
      if (!units.Excluded(u)) matches[u] = moments.RowCount(u);
    }
    for (size_t k = 0; k < num_inputs; ++k) {
      slots[k] = moments.SlotOf(inputs[k]->column);
    }
  } else {
    cells.resize(num_units * num_inputs);
    FoldRows(rows, query.predicate.get(), units, inputs, execution,
             estimate_span.scope(), matches.data(), cells.data());
  }
  auto cell = [&](size_t u, size_t k) -> const ColumnMoments& {
    return from_moments ? moments.AtSlot(u, slots[k])
                        : cells[u * num_inputs + k];
  };

  // Roll-up: each unit's scaled terms onto its output group, in ascending
  // unit id. Units without a matching row add nothing.
  std::vector<CountRollUp> counts(num_groups);
  std::vector<InputRollUp> sums(num_groups * num_inputs);
  for (size_t u = 0; u < num_units; ++u) {
    if (matches[u] == 0) continue;
    const uint32_t g = units.group_of[u];
    const Stratum& s = strata[units.StratumOf(u)];
    const double sf = s.ScaleFactor();
    const double n = static_cast<double>(s.sample_count);
    const double big_n = static_cast<double>(s.population);
    const double m = static_cast<double>(matches[u]);
    CountRollUp& count = counts[g];
    count.support += matches[u];
    count.est += sf * m;
    count.var += ExpansionVariance(big_n, n, m, m);
    count.hoeff_c2 += n * sf * sf;
    for (size_t k = 0; k < num_inputs; ++k) {
      const ColumnMoments& cs = cell(u, k);
      InputRollUp& r = sums[g * num_inputs + k];
      r.est += sf * cs.sum;
      r.var += ExpansionVariance(big_n, n, cs.sum, cs.sum_sq);
      r.cov += StratumCovariance(big_n, n, matches[u], cs.sum);
      r.hoeff_c2 += n * (sf * cs.max_abs) * (sf * cs.max_abs);
    }
  }
  rollup_span.Stop();

  const BoundHalfWidth half_width(options.bound_method, options.confidence);
  // Each group's estimates, standard errors and bounds, laid out as the
  // answer stores them.
  const size_t width = 3 * num_aggs;
  std::vector<double> numbers(num_groups * width, 0.0);
  for (size_t g = 0; g < num_groups; ++g) {
    const CountRollUp& count = counts[g];
    double* estimates = numbers.data() + g * width;
    double* std_errors = estimates + num_aggs;
    double* bounds = std_errors + num_aggs;
    for (size_t a = 0; a < num_aggs; ++a) {
      double est = 0.0;
      double variance = 0.0;
      double hoeff_c2 = 0.0;
      bool has_range = true;  // AVG has none: Chebyshev fallback.
      if (query.aggregates[a].kind == AggregateKind::kCount) {
        est = count.est;
        variance = count.var;
        hoeff_c2 = count.hoeff_c2;
      } else {
        const InputRollUp& r = sums[g * num_inputs + input_of[a]];
        if (query.aggregates[a].kind == AggregateKind::kSum) {
          est = r.est;
          variance = r.var;
          hoeff_c2 = r.hoeff_c2;
        } else {
          has_range = false;
          if (count.est > 0.0) {
            est = r.est / count.est;
            // Delta-method variance of the ratio estimator.
            variance = (r.var - 2.0 * est * r.cov + est * est * count.var) /
                       (count.est * count.est);
            if (variance < 0.0) variance = 0.0;
          }
        }
      }
      const double std_err = std::sqrt(std::max(0.0, variance));
      estimates[a] = est;
      std_errors[a] = std_err;
      bounds[a] = half_width(std_err, has_range, hoeff_c2);
    }
  }

  // Output: the groups with a matching row that pass HAVING, in key
  // order, each appended once with its key and numbers. Comparisons are
  // RowKeyLess's over first rows, identical to a sort of the rows. A
  // roll-up's keys are NaN-free and totally ordered, so its memoized
  // order, filtered, is the sorted order; interned groups are sorted
  // from first-occurrence order.
  auto emitted = [&](uint32_t g) {
    return counts[g].support > 0 &&
           PassesHaving(query.having, numbers.data() + g * width, num_aggs);
  };
  std::vector<uint32_t> order;
  order.reserve(num_groups);
  if (rollup != nullptr) {
    for (uint32_t g : rollup->key_order) {
      if (emitted(g)) order.push_back(g);
    }
  } else {
    for (uint32_t g = 0; g < num_groups; ++g) {
      if (emitted(g)) order.push_back(g);
    }
    const RowKeyLess key_less(rows, query.group_columns, units.first_row);
    std::sort(order.begin(), order.end(), std::cref(key_less));
  }
  const size_t key_width = query.group_columns.size();
  ApproximateResult result(key_width, num_aggs);
  result.Reserve(order.size());
  GroupKey key(key_width);
  for (uint32_t g : order) {
    std::span<const Value> group_key = key;
    if (rollup != nullptr) {
      group_key = {rollup->keys.data() + g * key_width, key_width};
    } else {
      for (size_t c = 0; c < key_width; ++c) {
        key[c] = rows.GetValue(units.first_row[g], query.group_columns[c]);
      }
    }
    std::span<double> out =
        result.Add(group_key, counts[g].support, GroupProvenance::kSampled);
    std::copy_n(numbers.begin() + g * width, width, out.begin());
  }
  return result;
}

}  // namespace congress
