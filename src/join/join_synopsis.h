#ifndef CONGRESS_JOIN_JOIN_SYNOPSIS_H_
#define CONGRESS_JOIN_JOIN_SYNOPSIS_H_

#include <string>
#include <vector>

#include "core/synopsis.h"
#include "join/star_schema.h"
#include "sampling/allocation.h"
#include "util/status.h"

namespace congress {

/// Configuration for a join synopsis over a star schema. Grouping columns
/// are named against the *widened* relation (fact columns keep their
/// names; dimension columns carry their DimensionSpec prefix), so the
/// strata can live in dimension attributes — the point of join synopses.
struct JoinSynopsisConfig {
  AllocationStrategy strategy = AllocationStrategy::kCongress;
  double sample_fraction = 0.07;
  uint64_t sample_size = 0;  ///< Overrides the fraction when non-zero.
  std::vector<std::string> grouping_columns;
  EstimatorOptions estimator;
  uint64_t seed = 42;
};

/// A join synopsis (Section 2 of the paper, [AGPR99]): a biased sample of
/// the foreign-key join of a star schema, precomputed so that any
/// group-by over fact *or dimension* attributes is answered from a single
/// synopsis relation without a join at query time.
class JoinSynopsis {
 public:
  /// Builds the synopsis. Scans the fact table once, widening each
  /// sampled tuple through per-dimension hash indexes; the full join is
  /// never materialized.
  static Result<JoinSynopsis> Build(const StarSchema& schema,
                                    const JoinSynopsisConfig& config);

  /// Approximate answer over the widened relation with error bounds.
  Result<ApproximateResult> Answer(const GroupByQuery& query) const;

  const StratifiedSample& sample() const { return sample_; }
  const Schema& widened_schema() const { return widened_schema_; }
  /// Grouping column indices in the widened schema.
  const std::vector<size_t>& grouping_column_indices() const {
    return grouping_indices_;
  }

 private:
  JoinSynopsis() = default;

  Schema widened_schema_;
  std::vector<size_t> grouping_indices_;
  StratifiedSample sample_;
  SampleMoments moments_;
  EstimatorOptions estimator_;
};

}  // namespace congress

#endif  // CONGRESS_JOIN_JOIN_SYNOPSIS_H_
