#ifndef CONGRESS_CORE_REWRITER_H_
#define CONGRESS_CORE_REWRITER_H_

#include <string>

#include "engine/query.h"
#include "sampling/stratified_sample.h"
#include "util/parallel.h"
#include "util/status.h"

namespace congress {

/// The four physical query-rewriting strategies of Section 5.2. All four
/// produce identical (unbiased, stratified-scaled) answers; they differ
/// only in how the per-tuple ScaleFactor reaches the aggregation:
///   * Integrated        — SF stored inline per tuple (Figure 8).
///   * NestedIntegrated  — inner aggregate per (group, SF), outer scale
///                         (Figure 11): one multiply per group, not per
///                         tuple.
///   * Normalized        — SF in a separate AuxRel joined on the grouping
///                         columns (Figure 9).
///   * KeyNormalized     — SF in an AuxRel joined on a synthetic group id
///                         (Figure 10).
enum class RewriteStrategy {
  kIntegrated = 0,
  kNestedIntegrated = 1,
  kNormalized = 2,
  kKeyNormalized = 3,
};

const char* RewriteStrategyToString(RewriteStrategy strategy);

/// Executes rewritten queries against the physical materializations of a
/// stratified sample. Materialization happens once at construction
/// (synopses are precomputed relations in Aqua); each Answer call pays
/// only that strategy's per-query cost, which is what Table 3 and
/// Figure 18 of the paper measure.
class Rewriter {
 public:
  explicit Rewriter(const StratifiedSample& sample);

  /// Answers `query` (expressed against the base schema) using the given
  /// strategy. Supports SUM, COUNT, and AVG aggregates. The scans and
  /// joins are morsel-parallel per `options`; answers are identical for
  /// every thread count. Each group is GroupProvenance::kSampled with
  /// support 0 and zero-width bounds: the rewrites compute the scaled
  /// estimates, not their variances.
  Result<ApproximateResult> Answer(const GroupByQuery& query,
                                   RewriteStrategy strategy,
                                   const ExecutorOptions& options = {}) const;

  /// The materialized relations, exposed for size accounting in benches.
  const Table& integrated_rel() const { return integrated_; }
  const Table& normalized_samp_rel() const { return normalized_samp_; }
  const Table& normalized_aux_rel() const { return normalized_aux_; }
  const Table& key_normalized_samp_rel() const { return key_samp_; }
  const Table& key_normalized_aux_rel() const { return key_aux_; }

 private:
  Result<ApproximateResult> AnswerIntegrated(
      const GroupByQuery& query, const ExecutorOptions& options) const;
  Result<ApproximateResult> AnswerNestedIntegrated(
      const GroupByQuery& query, const ExecutorOptions& options) const;
  Result<ApproximateResult> AnswerNormalized(
      const GroupByQuery& query, const ExecutorOptions& options) const;
  Result<ApproximateResult> AnswerKeyNormalized(
      const GroupByQuery& query, const ExecutorOptions& options) const;

  std::vector<size_t> grouping_columns_;
  size_t base_num_columns_ = 0;

  Table integrated_;       // base columns + sf.
  Table normalized_samp_;  // base columns.
  Table normalized_aux_;   // grouping columns + sf.
  Table key_samp_;         // base columns + gid.
  Table key_aux_;          // gid + sf.
};

}  // namespace congress

#endif  // CONGRESS_CORE_REWRITER_H_
