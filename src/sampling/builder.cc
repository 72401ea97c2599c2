#include "sampling/builder.h"

#include "obs/metrics.h"
#include "obs/scope.h"
#include "sampling/reservoir.h"

namespace congress {

// `options` only carries the span scope, so CONGRESS_DISABLE_OBS builds
// never read it.
Result<std::vector<std::vector<uint64_t>>> DrawStratifiedRows(
    const GroupCensus& census, const Allocation& allocation, Random* rng,
    [[maybe_unused]] const ExecutorOptions& options) {
  const GroupStatistics& stats = census.stats;
  if (allocation.expected_sizes.size() != stats.num_groups()) {
    return Status::InvalidArgument(
        "allocation does not align with group statistics");
  }
  // One reservoir of base-row indices per stratum.
  std::vector<ReservoirSampler<uint64_t>> reservoirs;
  reservoirs.reserve(stats.num_groups());
  for (uint64_t k : RoundAllocation(stats, allocation)) {
    reservoirs.emplace_back(static_cast<size_t>(k));
  }

  // The census already maps each row to its stratum. The reservoir Offer
  // loop stays serial and in row order, so the RNG stream — and therefore
  // the sample — is reproducible and independent of the thread count.
  CONGRESS_SPAN(reservoir_span, options.scope, "reservoir");
  const std::vector<uint32_t>& row_ids = census.index->row_ids();
  for (size_t row = 0; row < row_ids.size(); ++row) {
    reservoirs[census.position[row_ids[row]]].Offer(static_cast<uint64_t>(row),
                                                    rng);
  }
  CONGRESS_METRIC_INCR("sampling.rows_offered", row_ids.size());
  std::vector<std::vector<uint64_t>> drawn;
  drawn.reserve(reservoirs.size());
  for (ReservoirSampler<uint64_t>& reservoir : reservoirs) {
    drawn.push_back(std::move(reservoir.mutable_items()));
  }
  return drawn;
}

Result<StratifiedSample> BuildStratifiedSample(
    const Table& table, const GroupCensus& census, const Allocation& allocation,
    Random* rng, const ExecutorOptions& options) {
  CONGRESS_RETURN_NOT_OK(census.CheckTable(table));
  auto drawn = DrawStratifiedRows(census, allocation, rng, options);
  if (!drawn.ok()) return drawn.status();

  CONGRESS_SPAN(materialize_span, options.scope, "materialize");
  const GroupStatistics& stats = census.stats;
  StratifiedSample sample(table.schema(), census.index->columns());
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    CONGRESS_RETURN_NOT_OK(
        sample.DeclareStratum(stats.keys()[i], stats.counts()[i]));
  }
  // Append in stratum order: sampled tuples of a group are contiguous,
  // mirroring the paper's "stored compactly in a few disk blocks" point.
  for (const std::vector<uint64_t>& rows : *drawn) {
    for (uint64_t row : rows) {
      CONGRESS_RETURN_NOT_OK(sample.Append(table, static_cast<size_t>(row)));
    }
  }
  return sample;
}

Result<StratifiedSample> BuildSample(const Table& table,
                                     const GroupCensus& census,
                                     AllocationStrategy strategy,
                                     double sample_size, Random* rng,
                                     const ExecutorOptions& options) {
  if (sample_size <= 0.0) {
    return Status::InvalidArgument("sample size must be positive");
  }
  CONGRESS_METRIC_INCR_DYN(std::string("sampling.builds.") +
                               AllocationStrategyToString(strategy),
                           1);
  if (census.stats.num_groups() == 0) {
    return Status::FailedPrecondition("table is empty");
  }
  CONGRESS_SPAN(allocate_span, options.scope, "allocate");
  Allocation allocation = Allocate(strategy, census.stats, sample_size);
  allocate_span.Stop();
  return BuildStratifiedSample(table, census, allocation, rng, options);
}

Result<StratifiedSample> BuildSample(
    const Table& table, const std::vector<size_t>& grouping_columns,
    AllocationStrategy strategy, double sample_size, Random* rng,
    const ExecutorOptions& options) {
  if (grouping_columns.empty()) {
    return Status::InvalidArgument("at least one grouping column required");
  }
  auto census = GroupCensus::Build(table, grouping_columns, options);
  if (!census.ok()) return census.status();
  return BuildSample(table, *census, strategy, sample_size, rng, options);
}

}  // namespace congress
