#ifndef CONGRESS_SAMPLING_CRITERIA_H_
#define CONGRESS_SAMPLING_CRITERIA_H_

#include <cstdint>
#include <vector>

#include "sampling/allocation.h"
#include "storage/table.h"
#include "util/status.h"

namespace congress {

/// Builders for the Section 8 / Figure 19 multi-criteria framework: each
/// returns a weight vector aligned with GroupStatistics::keys() that can
/// be fed to AllocateFromWeightVectors (possibly alongside the standard
/// per-grouping S1 vectors) to bias the congressional sample by data
/// characteristics beyond group size.

/// How to turn within-group dispersion into weights.
enum class VarianceCriterion {
  /// Weight proportional to the group's standard deviation S_g (the
  /// paper's "in proportion to the variances of the groups" reading).
  kStdDev = 0,
  /// Weight proportional to N_g * S_g — the classical Neyman-optimal
  /// allocation for estimating the overall total.
  kNeyman = 1,
  /// Weight proportional to the value spread max_g - min_g (the paper's
  /// "difference between the maximum and minimum values" criterion).
  kRange = 2,
};

/// Computes per-group dispersion weights of `value_column` over the
/// finest groups of `census`, which must describe `table`; the weights
/// align with census.stats. Groups with a single tuple (undefined S) get
/// weight 0. The table pass is parallel across groups per `options`; each
/// group's moments accumulate in ascending row order, so the weights are
/// bit-identical for every thread count.
Result<std::vector<double>> DispersionWeightVector(
    const Table& table, const GroupCensus& census, size_t value_column,
    VarianceCriterion criterion, const ExecutorOptions& options = {});

/// Time/range-decay weights (the paper's "recent sales data better
/// represented" example): the distinct values of grouping-key position
/// `key_position` are ranked ascending and split into `num_buckets`
/// equal-rank buckets; a group in bucket b (0 = oldest) gets weight
/// n_g * decay_per_bucket^b, so each step toward the newest bucket
/// multiplies the sampling rate by `decay_per_bucket`.
Result<std::vector<double>> RangeDecayWeightVector(
    const GroupStatistics& stats, size_t key_position, size_t num_buckets,
    double decay_per_bucket);

/// Convenience: Congress's 2^|G| grouping vectors plus the caller's extra
/// criteria vectors, combined by the Figure 19 max-and-rescale rule.
Result<Allocation> AllocateCongressWithCriteria(
    const GroupStatistics& stats, double sample_size,
    const std::vector<std::vector<double>>& extra_criteria);

}  // namespace congress

#endif  // CONGRESS_SAMPLING_CRITERIA_H_
