#ifndef CONGRESS_SAMPLING_CONGRESS_VARIANTS_H_
#define CONGRESS_SAMPLING_CONGRESS_VARIANTS_H_

#include "sampling/allocation.h"
#include "sampling/stratified_sample.h"
#include "storage/table.h"
#include "util/random.h"
#include "util/status.h"

namespace congress {

/// The alternative constructions of a congressional sample discussed at
/// the end of Section 4.6 of the paper. All four have the same per-group
/// expected sizes (Eq. 5); they differ in how the randomness is realized.
enum class CongressVariant {
  /// Draw exactly SampleSize(g) tuples per group (reservoirs). The
  /// paper's primary definition and this library's default.
  kExactSize = 0,
  /// Select each tuple of group g independently with probability
  /// SampleSize(g) / n_g; actual sizes fluctuate binomially.
  kBernoulli = 1,
  /// Select each tuple with the Eq. 8 probability
  ///   X * max_T 1/(m_T n_{g(tau,T)}) / sum_tau max_T ...
  /// computed directly from the per-grouping counters.
  kEq8 = 2,
  /// The incremental pseudocode at the end of Section 4.6: sweep the
  /// sub-groupings by increasing arity and top every group h under T up
  /// to f * X / m_T tuples, reusing tuples selected for coarser
  /// groupings.
  kGroupFill = 3,
};

const char* CongressVariantToString(CongressVariant variant);

/// Builds a congressional sample of `table` using the given construction
/// variant with target space `sample_size`. All variants take one data
/// pass after the group census (GroupCensus::Build, morsel-parallel per
/// `options`), which also maps every row to its stratum; every random
/// draw happens in a serial row-order loop over those ids, so samples are
/// reproducible for any thread count.
Result<StratifiedSample> BuildCongressVariant(
    const Table& table, const std::vector<size_t>& grouping_columns,
    double sample_size, CongressVariant variant, Random* rng,
    const ExecutorOptions& options = {});

}  // namespace congress

#endif  // CONGRESS_SAMPLING_CONGRESS_VARIANTS_H_
