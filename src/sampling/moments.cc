#include "sampling/moments.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "storage/value.h"

namespace congress {

namespace {
const ColumnMoments kEmptyMoments;
}  // namespace

namespace internal {
/// Memoized roll-up terms, keyed by the key positions of the roll-up.
/// Entries are built under the lock (rare: one build per distinct
/// roll-up of the synopsis grouping) and never evicted; unique_ptr keeps
/// the returned references stable as the map grows.
struct TermsCache {
  std::mutex mu;
  std::map<std::vector<size_t>, std::unique_ptr<const GroupedExpansionTerms>>
      entries;
};
}  // namespace internal

ExpansionTerms StratumExpansionTerms(const Stratum& stratum,
                                     const ColumnMoments& m, bool count_agg) {
  ExpansionTerms t;
  if (stratum.sample_count == 0) return t;
  const double sf = stratum.ScaleFactor();
  const double n = static_cast<double>(stratum.sample_count);
  const double big_n = static_cast<double>(stratum.population);
  const double sum_v = count_agg ? n : m.sum;
  const double sum_v2 = count_agg ? n : m.sum_sq;
  const double max_abs = count_agg ? 1.0 : m.max_abs;
  t.est = sf * sum_v;
  // Under the no-predicate model every one of the n draws matches.
  t.var = ExpansionVariance(big_n, n, sum_v, sum_v2);
  t.hoeff_c2 = n * (sf * max_abs) * (sf * max_abs);
  return t;
}

SampleMoments::SampleMoments()
    : cache_(std::make_shared<internal::TermsCache>()) {}

SampleMoments SampleMoments::Compute(const StratifiedSample& sample) {
  SampleMoments moments;
  const Schema& schema = sample.base_schema();
  moments.column_slot_.assign(schema.num_fields(), SIZE_MAX);
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (schema.field(c).type == DataType::kString) continue;
    moments.column_slot_[c] = moments.numeric_columns_.size();
    moments.numeric_columns_.push_back(c);
  }

  const Table& rows = sample.rows();
  const std::vector<uint32_t>& row_strata = sample.row_strata();
  const size_t num_strata = sample.strata().size();

  // The stratum layout: a counting sort of row_strata(). It counts and
  // places whole runs of one stratum: samples are usually appended
  // stratum by stratum, and per-row counter updates would serialize on
  // one counter through each run.
  const size_t num_rows = row_strata.size();
  auto run_end = [&row_strata, num_rows](size_t r) {
    const uint32_t s = row_strata[r];
    while (++r < num_rows && row_strata[r] == s) {
    }
    return r;
  };
  moments.offsets_.assign(num_strata + 1, 0);
  for (size_t r = 0, end = 0; r < num_rows; r = end) {
    end = run_end(r);
    moments.offsets_[row_strata[r] + 1] += end - r;
  }
  for (size_t s = 0; s < num_strata; ++s) {
    moments.offsets_[s + 1] += moments.offsets_[s];
  }
  moments.rows_.resize(num_rows);
  std::vector<uint64_t> cursor(moments.offsets_.begin(),
                               moments.offsets_.end() - 1);
  for (size_t r = 0, end = 0; r < num_rows; r = end) {
    end = run_end(r);
    uint32_t* out = moments.rows_.data() + cursor[row_strata[r]];
    cursor[row_strata[r]] += end - r;
    for (size_t i = r; i < end; ++i) *out++ = static_cast<uint32_t>(i);
  }

  moments.per_stratum_.assign(
      num_strata, std::vector<ColumnMoments>(moments.numeric_columns_.size()));
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<ColumnMoments>& strat = moments.per_stratum_[row_strata[r]];
    for (size_t slot = 0; slot < moments.numeric_columns_.size(); ++slot) {
      const double v = rows.NumericAt(r, moments.numeric_columns_[slot]);
      ColumnMoments& m = strat[slot];
      ++m.count;
      m.sum += v;
      m.sum_sq += v * v;
      const double a = std::fabs(v);
      if (a > m.max_abs) m.max_abs = a;
    }
  }
  moments.total_sum_sq_.assign(moments.numeric_columns_.size(), 0.0);
  for (const std::vector<ColumnMoments>& strat : moments.per_stratum_) {
    for (size_t slot = 0; slot < strat.size(); ++slot) {
      moments.total_sum_sq_[slot] += strat[slot].sum_sq;
    }
  }
  return moments;
}

const ColumnMoments& SampleMoments::Of(size_t stratum, size_t column) const {
  if (stratum >= per_stratum_.size() || column >= column_slot_.size() ||
      column_slot_[column] == SIZE_MAX) {
    return kEmptyMoments;
  }
  return per_stratum_[stratum][column_slot_[column]];
}

double SampleMoments::TotalSumSq(size_t column) const {
  const size_t slot = SlotOf(column);
  return slot == SIZE_MAX ? 0.0 : total_sum_sq_[slot];
}

const GroupedExpansionTerms& SampleMoments::GroupedFor(
    const StratifiedSample& sample,
    const std::vector<size_t>& key_positions) const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  auto it = cache_->entries.find(key_positions);
  if (it != cache_->entries.end()) return *it->second;

  auto terms = std::make_unique<GroupedExpansionTerms>();
  const std::vector<Stratum>& strata = sample.strata();
  terms->group_of.resize(strata.size());
  if (key_positions.empty()) {
    terms->num_groups = strata.empty() ? 0 : 1;
  } else {
    std::unordered_map<GroupKey, uint32_t, GroupKeyHash> ids;
    ids.reserve(strata.size());
    GroupKey key;
    for (size_t s = 0; s < strata.size(); ++s) {
      key.clear();
      for (size_t pos : key_positions) key.push_back(strata[s].key[pos]);
      auto inserted = ids.emplace(key, static_cast<uint32_t>(ids.size()));
      terms->group_of[s] = inserted.first->second;
    }
    terms->num_groups = ids.size();
  }

  const size_t g_count = terms->num_groups;

  // Each group's first sample row and output key, and the groups in key
  // order. A stratum's first row heads its ascending run, so a group's
  // first row is the least of its strata's.
  terms->first_row.assign(g_count, GroupedExpansionTerms::kNoRow);
  for (size_t s = 0; s < strata.size(); ++s) {
    if (RowCount(s) == 0) continue;
    uint32_t& first = terms->first_row[terms->group_of[s]];
    first = std::min(first, rows_[offsets_[s]]);
  }
  const Table& table = sample.rows();
  std::vector<size_t> columns;
  for (size_t pos : key_positions) {
    columns.push_back(sample.grouping_columns()[pos]);
  }
  const size_t width = columns.size();
  terms->keys.resize(g_count * width);
  std::vector<uint32_t> sampled;  // Groups with a row, and their first rows.
  std::vector<uint32_t> sampled_rows;
  for (uint32_t g = 0; g < g_count; ++g) {
    const uint32_t row = terms->first_row[g];
    if (row == GroupedExpansionTerms::kNoRow) continue;
    sampled.push_back(g);
    sampled_rows.push_back(row);
    for (size_t c = 0; c < width; ++c) {
      terms->keys[g * width + c] = table.GetValue(row, columns[c]);
    }
  }
  const RowKeyLess key_less(table, columns, sampled_rows);
  std::vector<uint32_t> order(sampled.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), std::cref(key_less));
  terms->key_order.reserve(order.size());
  for (uint32_t i : order) terms->key_order.push_back(sampled[i]);

  const size_t num_slots = numeric_columns_.size();
  terms->population.assign(g_count, 0.0);
  terms->count_terms.assign(g_count, ExpansionTerms{});
  terms->column_terms.assign(num_slots * g_count, ExpansionTerms{});
  for (size_t s = 0; s < strata.size(); ++s) {
    const Stratum& stratum = strata[s];
    if (stratum.sample_count == 0) continue;
    const uint32_t g = terms->group_of[s];
    terms->population[g] += static_cast<double>(stratum.population);
    terms->count_terms[g].Add(
        StratumExpansionTerms(stratum, kEmptyMoments, /*count_agg=*/true));
    const std::vector<ColumnMoments>& strat = per_stratum_[s];
    for (size_t slot = 0; slot < num_slots; ++slot) {
      terms->column_terms[slot * g_count + g].Add(
          StratumExpansionTerms(stratum, strat[slot], /*count_agg=*/false));
    }
  }

  auto placed = cache_->entries.emplace(key_positions, std::move(terms));
  return *placed.first->second;
}

}  // namespace congress
