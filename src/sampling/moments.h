#ifndef CONGRESS_SAMPLING_MOMENTS_H_
#define CONGRESS_SAMPLING_MOMENTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sampling/stratified_sample.h"

namespace congress {

/// Running moments of one numeric column inside one stratum of a
/// stratified sample: everything a closed-form stratified-variance
/// predictor (the paper's §5 bounds) needs, without touching the sampled
/// rows again at query time.
struct ColumnMoments {
  uint64_t count = 0;    ///< Sampled tuples of this stratum.
  double sum = 0.0;      ///< Σ v over the sampled tuples.
  double sum_sq = 0.0;   ///< Σ v² over the sampled tuples.
  double max_abs = 0.0;  ///< max |v|, for Hoeffding-style ranges.

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Unbiased within-stratum sample variance s²; 0 when count < 2.
  double variance() const {
    if (count < 2) return 0.0;
    const double n = static_cast<double>(count);
    const double v = (sum_sq - n * mean() * mean()) / (n - 1.0);
    return v > 0.0 ? v : 0.0;
  }
};

/// Query-independent terms one stratum contributes to the planner's
/// no-predicate error model (planner/error_model.h): the scaled estimate
/// sf·Σv, the finite-population expansion variance N(N−n)s²/n, and the
/// Hoeffding per-draw squared range n·(sf·max|v|)².
struct ExpansionTerms {
  double est = 0.0;
  double var = 0.0;
  double hoeff_c2 = 0.0;

  void Add(const ExpansionTerms& o) {
    est += o.est;
    var += o.var;
    hoeff_c2 += o.hoeff_c2;
  }
};

/// Finite-population variance of the stratified expansion estimator for
/// one stratum of population `big_n` drawn `n` times: N(N − n)s²/n, with
/// s² the sample variance of the n draws of the aggregate variable z from
/// `sum_v` = Σz and `sum_v2` = Σz² (a draw that does not match adds 0 to
/// both). 0 when n < 2: one draw estimates no variance. Inline: the
/// estimator calls it per unit and input.
inline double ExpansionVariance(double big_n, double n, double sum_v,
                                double sum_v2) {
  if (n < 2.0) return 0.0;
  const double mean = sum_v / n;
  // Σ over all n draws of (z − mean)² = Σz² − n·mean².
  double ss = sum_v2 - n * mean * mean;
  if (ss < 0.0) ss = 0.0;
  const double s2 = ss / (n - 1.0);
  double fpc = big_n - n;
  if (fpc < 0.0) fpc = 0.0;
  return big_n * fpc * s2 / n;
}

/// The expansion terms of `stratum` for one aggregate variable: the
/// column whose moments are `m`, or the constant 1 when `count_agg`
/// (COUNT(*): every draw contributes 1, so the variance vanishes).
ExpansionTerms StratumExpansionTerms(const Stratum& stratum,
                                     const ColumnMoments& m, bool count_agg);

/// One roll-up of a synopsis grouping: strata are projected to output
/// groups by selecting `key_positions` from each stratum key (empty = one
/// global group). It holds what every query over that roll-up shares:
/// the projection and key order the estimator emits through, and the
/// expansion terms of every covered column pre-summed per group, so
/// scoring a candidate synopsis costs O(#groups × #aggregates) — no
/// per-query stratum pass, no key hashing.
struct GroupedExpansionTerms {
  static constexpr uint32_t kNoRow = 0xFFFFFFFFu;
  std::vector<uint32_t> group_of;  ///< Stratum index → dense group id.
  size_t num_groups = 0;
  /// Per group: its first sample row (kNoRow when none of its strata
  /// holds a sampled row).
  std::vector<uint32_t> first_row;
  /// Per group: key_positions.size() output key values, those of the
  /// group's first sample row (so a -0.0 there is kept even when the
  /// stratum key holds +0.0); default values for a group without rows.
  std::vector<Value> keys;
  /// The groups with a sampled row, sorted by key (RowKeyLess over their
  /// first rows). A sampled row found its stratum by key equality, which
  /// a NaN never satisfies, so no key holds a NaN: the order is total,
  /// and any subset of the groups sorts into its order here.
  std::vector<uint32_t> key_order;
  /// Per group: Σ population over the strata with sampled tuples (the
  /// model's COUNT estimate and AVG denominator).
  std::vector<double> population;
  std::vector<ExpansionTerms> count_terms;  ///< Per group, COUNT(*) terms.
  /// Per column slot and group: column_terms[slot * num_groups + g].
  std::vector<ExpansionTerms> column_terms;
};

namespace internal {
struct TermsCache;
}  // namespace internal

/// Per-stratum, per-numeric-column moments for a stratified sample,
/// computed once at synopsis build time (one pass over the sampled rows)
/// so the planner can score candidate synopses, and the estimator answer
/// predicate-free queries, without any row access. Strata follow
/// sample.strata() order; columns follow numeric_columns() order (the
/// base schema's numeric columns, ascending).
class SampleMoments {
 public:
  SampleMoments();

  /// One pass over `sample.rows()`: lays out each stratum's rows and
  /// accumulates moments for every numeric (kInt64/kDouble) column of the
  /// base schema, each stratum's rows folded in ascending row order.
  static SampleMoments Compute(const StratifiedSample& sample);

  /// The stratum layout: stratum s owns the sample rows
  /// stratum_rows()[stratum_offsets()[s] .. stratum_offsets()[s + 1]),
  /// ascending.
  const std::vector<uint64_t>& stratum_offsets() const { return offsets_; }
  const std::vector<uint32_t>& stratum_rows() const { return rows_; }
  /// Sampled rows of stratum s.
  uint64_t RowCount(size_t s) const { return offsets_[s + 1] - offsets_[s]; }
  size_t num_rows() const { return rows_.size(); }

  /// Base-schema indices of the covered columns, ascending.
  const std::vector<size_t>& numeric_columns() const {
    return numeric_columns_;
  }

  size_t num_strata() const { return per_stratum_.size(); }

  /// Moments of `column` (a base-schema index) in stratum `stratum`
  /// (an index into sample.strata()). Returns empty moments for
  /// non-numeric columns.
  const ColumnMoments& Of(size_t stratum, size_t column) const;
  /// Moments of the column in `slot` (numeric_columns() order) in
  /// `stratum`, unchecked.
  const ColumnMoments& AtSlot(size_t stratum, size_t slot) const {
    return per_stratum_[stratum][slot];
  }

  /// Slot of `column` in numeric_columns() order, SIZE_MAX if uncovered.
  size_t SlotOf(size_t column) const {
    return column < column_slot_.size() ? column_slot_[column] : SIZE_MAX;
  }

  /// Total Σv² of `column` across all strata (0 for uncovered columns):
  /// the planner's proxy-column dispersion ranking, precomputed so proxy
  /// selection never rescans the strata.
  double TotalSumSq(size_t column) const;

  /// The roll-up selecting `key_positions` from each stratum key: the
  /// planner scores through its terms, and the estimator reads its
  /// projection, first rows, keys and key order for every query whose
  /// group columns are grouping columns. `sample` MUST be the sample
  /// these moments were computed from. Thread-safe: the entry is built
  /// under a lock on first use and memoized (the distinct roll-ups of
  /// one synopsis grouping are few), so steady-state callers only pay a
  /// lookup. The returned reference stays valid for the lifetime of this
  /// object and its copies.
  const GroupedExpansionTerms& GroupedFor(
      const StratifiedSample& sample,
      const std::vector<size_t>& key_positions) const;

  bool empty() const { return per_stratum_.empty(); }

 private:
  std::vector<uint64_t> offsets_;  ///< Stratum layout, see stratum_offsets().
  std::vector<uint32_t> rows_;
  std::vector<size_t> numeric_columns_;
  std::vector<size_t> column_slot_;  ///< base column -> slot, SIZE_MAX if none.
  std::vector<double> total_sum_sq_;  ///< Per slot: Σv² over all strata.
  /// per_stratum_[s][slot] — moments of numeric_columns_[slot] in stratum s.
  std::vector<std::vector<ColumnMoments>> per_stratum_;
  /// Memoized roll-up terms, shared across copies (copies describe the
  /// same sample).
  std::shared_ptr<internal::TermsCache> cache_;
};

}  // namespace congress

#endif  // CONGRESS_SAMPLING_MOMENTS_H_
