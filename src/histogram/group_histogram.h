#ifndef CONGRESS_HISTOGRAM_GROUP_HISTOGRAM_H_
#define CONGRESS_HISTOGRAM_GROUP_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "engine/query.h"
#include "sampling/allocation.h"
#include "storage/table.h"
#include "util/parallel.h"
#include "util/status.h"

namespace congress {

/// A histogram-family synopsis in the spirit of [IP99], built here as the
/// baseline the paper's footnote 4 dismisses: "other common summary
/// statistics such as histograms and wavelets suffer from this same
/// general problem" (under-representation of small groups).
///
/// The histogram partitions the finest groups (ordered by group key) into
/// `num_buckets` buckets of roughly equal tuple mass (equi-depth). Each
/// bucket stores its group count, tuple count and per-measure sums. A
/// group-by query is answered under the classic uniform-spread
/// assumption: every group inside a bucket is assumed to hold an equal
/// share of the bucket's tuples and value mass. Exact when group sizes
/// are uniform within buckets; increasingly wrong under Zipf skew — the
/// effect the comparison bench demonstrates.
class GroupHistogram {
 public:
  struct Options {
    size_t num_buckets = 100;
    /// Measure columns to pre-aggregate (must be numeric).
    std::vector<size_t> measure_columns;
    /// Parallelism for the build scans. Results are bit-identical for
    /// every thread count (per-group sums accumulate in row order).
    ExecutorOptions execution;
  };

  /// Builds the histogram over `table` stratified on the grouping of
  /// `census`, which must describe `table`.
  static Result<GroupHistogram> Build(const Table& table,
                                      const GroupCensus& census,
                                      const Options& options);

  /// Interns `table` over `grouping_columns` into a census, then calls
  /// the form above.
  static Result<GroupHistogram> Build(const Table& table,
                                      const std::vector<size_t>& grouping_columns,
                                      const Options& options);

  /// Answers a group-by query with SUM/COUNT/AVG aggregates over the
  /// pre-aggregated measure columns. Predicates are not supported (a
  /// histogram over the grouping attributes carries no per-tuple detail
  /// to evaluate them — one of its structural limitations vs. samples).
  /// Groups are GroupProvenance::kSampled with support 0 and zero-width
  /// bounds.
  Result<ApproximateResult> Answer(const GroupByQuery& query) const;

  size_t num_buckets() const { return buckets_.size(); }
  /// Total cells stored (for space accounting against a sample): each
  /// bucket stores 2 + #measures numbers plus its boundary key.
  size_t StorageCells() const;

 private:
  struct Bucket {
    size_t first_group = 0;   // Index into group_keys_.
    size_t num_groups = 0;
    uint64_t tuple_count = 0;
    std::vector<double> measure_sums;  // Aligned with measure_columns_.
  };

  GroupHistogram() = default;

  std::vector<size_t> grouping_columns_;
  std::vector<size_t> measure_columns_;
  std::vector<GroupKey> group_keys_;  // All finest groups, sorted.
  std::vector<Bucket> buckets_;
};

/// Answers a SUM/COUNT/AVG group-by from per-finest-group totals:
/// totals[0][g] estimates group g's tuple count and totals[1 + k][g] its
/// sum of measure_columns[k], for the key-sorted finest groups
/// `group_keys` over `grouping_columns`. The histogram and the wavelet
/// synopsis differ only in how they estimate those totals; `kind` names
/// the synopsis in errors. Groups are GroupProvenance::kSampled with
/// support 0 and zero-width bounds, sorted by key.
Result<ApproximateResult> AnswerFromGroupTotals(
    const GroupByQuery& query, const std::vector<size_t>& grouping_columns,
    const std::vector<size_t>& measure_columns,
    const std::vector<GroupKey>& group_keys,
    const std::vector<std::vector<double>>& totals, const std::string& kind);

}  // namespace congress

#endif  // CONGRESS_HISTOGRAM_GROUP_HISTOGRAM_H_
