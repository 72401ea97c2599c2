#ifndef CONGRESS_CORE_SYNOPSIS_H_
#define CONGRESS_CORE_SYNOPSIS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "sampling/allocation.h"
#include "sampling/builder.h"
#include "sampling/moments.h"
#include "sampling/stratified_sample.h"
#include "storage/table.h"
#include "util/status.h"

namespace congress {

/// Configuration for building a synopsis over one relation — the knobs
/// the Aqua warehouse administrator supplies (Section 2 of the paper).
struct SynopsisConfig {
  /// Which Section 4 allocation strategy to use.
  AllocationStrategy strategy = AllocationStrategy::kCongress;

  /// Sample size as a fraction of the relation (the paper's SP
  /// parameter). Ignored if `sample_size` is set.
  double sample_fraction = 0.07;

  /// Absolute sample size in tuples; 0 means "use sample_fraction".
  uint64_t sample_size = 0;

  /// Names of the grouping (dimensional) columns.
  std::vector<std::string> grouping_columns;

  /// Error-bound settings for approximate answers.
  EstimatorOptions estimator;

  /// If true, build by one-pass construction through the incremental
  /// maintainer (Section 6); AquaEngine additionally keeps the stream
  /// open for Insert/Refresh. Otherwise build with the two-pass
  /// exact-allocation path.
  bool incremental = false;

  /// Ingest shards for the engine's streaming path (sampling/shard.h);
  /// 0 picks one per hardware thread. Only meaningful with
  /// `incremental`. With a single producer, published samples are
  /// bit-identical at any shard count.
  size_t ingest_shards = 0;

  uint64_t seed = 42;

  /// Fleet synopses for the accuracy-aware planner: when set, each
  /// snapshot publish also builds a group histogram / wavelet synopsis
  /// over the base table at the synopsis grouping, with its residual
  /// error measured against the exact finest-grouping answer so the
  /// planner can score it. Off by default (publish-time cost).
  bool fleet_histogram = false;
  bool fleet_wavelet = false;

  /// Parallelism for build scans and query answering (num_threads = 1 is
  /// the serial engine; 0 uses all hardware threads). Samples, estimates,
  /// and rewritten answers are bit-identical for every thread count.
  ExecutorOptions execution;
};

/// Resolves grouping column names against `schema` to column indices;
/// errors on an empty list or an unknown name. Shared by the synopsis and
/// join-synopsis build paths and AquaEngine's register path.
Result<std::vector<size_t>> ResolveGroupingIndices(
    const Schema& schema, const std::vector<std::string>& grouping_columns);

/// Resolves the target sample size of a relation of `num_rows` rows: the
/// absolute `sample_size` when non-zero, else `sample_fraction` of the
/// rows; errors on infeasible fractions and sizes that round to zero.
Result<uint64_t> ResolveSampleSize(uint64_t sample_size,
                                   double sample_fraction, uint64_t num_rows);

/// An Aqua-style synopsis over one base relation: a stratified sample and
/// its per-stratum moments. This is the library's main facade. A synopsis
/// is an immutable value, so concurrent readers can share it without
/// synchronization; AquaEngine owns the only live maintainer and mints a
/// new synopsis on every publish. The Section 5.2 rewrite plans are
/// materialized by constructing a Rewriter over sample().
class AquaSynopsis {
 public:
  /// Builds a synopsis from `base`. The base table is only read during
  /// the build; it is not retained. With config.incremental the sample
  /// comes from one-pass construction (BuildSampleOnePass); otherwise the
  /// form below builds from the census of `base`.
  static Result<AquaSynopsis> Build(const Table& base,
                                    const SynopsisConfig& config);

  /// Two-pass build over the census of `base` at the configured grouping
  /// columns (config.incremental is not consulted). A publish builds its
  /// primary and both fallbacks this way from one census.
  static Result<AquaSynopsis> Build(const Table& base,
                                    const GroupCensus& census,
                                    const SynopsisConfig& config);

  /// Freezes a sample into a synopsis: its moments are computed once.
  /// This is the publish step of the engine's snapshot lifecycle and the
  /// restart step of recovery (resilience/recovery.h).
  /// The sample is authoritative for grouping structure, so
  /// config().grouping_columns is re-derived from it. `target_sample_size`
  /// is the sample-size target X and `tuples_seen` the stream position
  /// the sample describes.
  static Result<AquaSynopsis> FromSample(StratifiedSample sample,
                                         const SynopsisConfig& config,
                                         uint64_t target_sample_size,
                                         uint64_t tuples_seen);

  /// Approximate answer with per-group error bounds, computed from the
  /// stratified estimators (Section 5.1).
  Result<ApproximateResult> Answer(const GroupByQuery& query) const;

  const StratifiedSample& sample() const { return sample_; }
  const SynopsisConfig& config() const { return config_; }
  /// Per-stratum column moments, computed once per build so the planner
  /// can score this synopsis in O(#strata).
  const SampleMoments& moments() const { return moments_; }
  /// Column indices of the grouping columns in the base schema.
  const std::vector<size_t>& grouping_column_indices() const {
    return grouping_indices_;
  }

  /// The sample-size target X.
  uint64_t target_size() const { return target_sample_size_; }
  /// Base tuples the sample describes (the stream position).
  uint64_t tuples_seen() const { return tuples_seen_; }

 private:
  AquaSynopsis() = default;

  SynopsisConfig config_;
  std::vector<size_t> grouping_indices_;
  StratifiedSample sample_;
  SampleMoments moments_;
  uint64_t target_sample_size_ = 0;
  uint64_t tuples_seen_ = 0;
};

}  // namespace congress

#endif  // CONGRESS_CORE_SYNOPSIS_H_
