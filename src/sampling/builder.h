#ifndef CONGRESS_SAMPLING_BUILDER_H_
#define CONGRESS_SAMPLING_BUILDER_H_

#include <vector>

#include "sampling/allocation.h"
#include "sampling/stratified_sample.h"
#include "storage/table.h"
#include "util/random.h"
#include "util/status.h"

namespace congress {

/// Builds a stratified sample of `table` with per-group sizes given by
/// `allocation` (which must align with census.stats). One pass over the
/// data using an independent reservoir per group — the "constructing using
/// a data cube" path of Section 6, where the cube (= the census of
/// `table`) supplies the target sizes up front and maps every row to its
/// stratum. The reservoir dispatch loop stays serial so the RNG stream
/// (and thus the drawn sample) is identical for every thread count.
Result<StratifiedSample> BuildStratifiedSample(
    const Table& table, const GroupCensus& census, const Allocation& allocation,
    Random* rng, const ExecutorOptions& options = {});

/// Allocates with `strategy` for `sample_size` expected tuples over the
/// census of `table` and builds the sample: one pass over the data.
Result<StratifiedSample> BuildSample(const Table& table,
                                     const GroupCensus& census,
                                     AllocationStrategy strategy,
                                     double sample_size, Random* rng,
                                     const ExecutorOptions& options = {});

/// Convenience wrapper: takes the census of `table` over
/// `grouping_columns`, then calls the form above. Two passes over the
/// data (count, then sample).
Result<StratifiedSample> BuildSample(const Table& table,
                                     const std::vector<size_t>& grouping_columns,
                                     AllocationStrategy strategy,
                                     double sample_size, Random* rng,
                                     const ExecutorOptions& options = {});

}  // namespace congress

#endif  // CONGRESS_SAMPLING_BUILDER_H_
