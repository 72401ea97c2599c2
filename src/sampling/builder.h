#ifndef CONGRESS_SAMPLING_BUILDER_H_
#define CONGRESS_SAMPLING_BUILDER_H_

#include <vector>

#include "sampling/allocation.h"
#include "sampling/stratified_sample.h"
#include "storage/table.h"
#include "util/random.h"
#include "util/status.h"

namespace congress {

/// Draws per-group sizes given by `allocation` (which must align with
/// census.stats) from the rows the census describes: one pass using an
/// independent reservoir per group — the "constructing using a data cube"
/// path of Section 6, where the cube (= the census) supplies the target
/// sizes up front and maps every row to its stratum. The reservoir
/// dispatch loop stays serial and in row order so the RNG stream (and
/// thus the draw) is identical for every thread count. Returns each
/// stratum's drawn row ids, aligned with census.stats.
Result<std::vector<std::vector<uint64_t>>> DrawStratifiedRows(
    const GroupCensus& census, const Allocation& allocation, Random* rng,
    const ExecutorOptions& options = {});

/// Builds a stratified sample of `table`, whose census is `census`: the
/// draw above, then the drawn rows appended in stratum order.
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
