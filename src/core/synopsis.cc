#include "core/synopsis.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/scope.h"
#include "resilience/failpoint.h"
#include "sampling/maintenance.h"

namespace congress {

Result<std::vector<size_t>> ResolveGroupingIndices(
    const Schema& schema, const std::vector<std::string>& grouping_columns) {
  if (grouping_columns.empty()) {
    return Status::InvalidArgument("no grouping columns configured");
  }
  std::vector<size_t> indices;
  for (const std::string& name : grouping_columns) {
    auto idx = schema.FieldIndex(name);
    if (!idx.ok()) return idx.status();
    indices.push_back(*idx);
  }
  return indices;
}

Result<uint64_t> ResolveSampleSize(uint64_t sample_size,
                                   double sample_fraction, uint64_t num_rows) {
  if (sample_size == 0) {
    if (sample_fraction <= 0.0 || sample_fraction > 1.0) {
      return Status::InvalidArgument("sample_fraction must be in (0, 1]");
    }
    sample_size = static_cast<uint64_t>(
        std::llround(sample_fraction * static_cast<double>(num_rows)));
  }
  if (sample_size == 0) {
    return Status::InvalidArgument("sample size rounds to zero");
  }
  return sample_size;
}

Result<AquaSynopsis> AquaSynopsis::Build(const Table& base,
                                         const SynopsisConfig& config) {
  auto indices = ResolveGroupingIndices(base.schema(), config.grouping_columns);
  if (!indices.ok()) return indices.status();
  if (!config.incremental) {
    auto census = GroupCensus::Build(base, *indices, config.execution);
    if (!census.ok()) return census.status();
    return Build(base, *census, config);
  }
  auto size = ResolveSampleSize(config.sample_size, config.sample_fraction,
                                base.num_rows());
  if (!size.ok()) return size.status();

  CONGRESS_METRIC_INCR("synopsis.builds", 1);
  CONGRESS_SPAN(build_span, config.execution.scope, "synopsis_build");
  CONGRESS_SPAN(maintain_span, build_span.scope(), "maintenance");
  auto sample = BuildSampleOnePass(base, *indices, config.strategy, *size,
                                   config.seed);
  maintain_span.Stop();
  if (!sample.ok()) return sample.status();
  return FromSample(std::move(sample).value(), config, *size,
                    base.num_rows());
}

Result<AquaSynopsis> AquaSynopsis::Build(const Table& base,
                                         const GroupCensus& census,
                                         const SynopsisConfig& config) {
  auto size = ResolveSampleSize(config.sample_size, config.sample_fraction,
                                base.num_rows());
  if (!size.ok()) return size.status();

  CONGRESS_METRIC_INCR("synopsis.builds", 1);
  CONGRESS_SPAN(build_span, config.execution.scope, "synopsis_build");
  Random rng(config.seed);
  auto sample = BuildSample(base, census, config.strategy,
                            static_cast<double>(*size), &rng,
                            config.execution.WithScope(build_span.scope()));
  if (!sample.ok()) return sample.status();
  return FromSample(std::move(sample).value(), config, *size,
                    base.num_rows());
}

Result<AquaSynopsis> AquaSynopsis::FromSample(StratifiedSample sample,
                                              const SynopsisConfig& config,
                                              uint64_t target_sample_size,
                                              uint64_t tuples_seen) {
  if (sample.grouping_columns().empty()) {
    return Status::InvalidArgument("sample declares no grouping columns");
  }
  AquaSynopsis synopsis;
  synopsis.config_ = config;
  // The sample is the source of truth for grouping structure; re-derive
  // the configured names from its schema so config() stays consistent.
  synopsis.grouping_indices_ = sample.grouping_columns();
  synopsis.config_.grouping_columns.clear();
  for (size_t c : synopsis.grouping_indices_) {
    if (c >= sample.base_schema().num_fields()) {
      return Status::InvalidArgument("sample grouping column " +
                                     std::to_string(c) + " out of range");
    }
    synopsis.config_.grouping_columns.push_back(
        sample.base_schema().field(c).name);
  }
  synopsis.target_sample_size_ = target_sample_size;
  synopsis.tuples_seen_ = tuples_seen;
  synopsis.sample_ = std::move(sample);
  synopsis.moments_ = SampleMoments::Compute(synopsis.sample_);
  return synopsis;
}

Result<ApproximateResult> AquaSynopsis::Answer(
    const GroupByQuery& query) const {
  CONGRESS_FAILPOINT("synopsis/answer");
  auto result =
      EstimateGroupBy(sample_, moments_, query, config_.estimator,
                      config_.execution);
#ifndef CONGRESS_DISABLE_OBS
  if (result.ok()) {
    // Mean relative half-width of the error bounds across groups — the
    // "estimated error" the system promises. Benches pair it with the
    // actual error gauge CompareAnswers() sets, so a snapshot shows how
    // honest the bounds were on the last query.
    double total = 0.0;
    size_t terms = 0;
    for (const ApproximateGroupRow& row : result->rows()) {
      for (size_t a = 0; a < row.estimates.size(); ++a) {
        if (row.estimates[a] != 0.0) {
          total += std::abs(row.bounds[a] / row.estimates[a]);
          ++terms;
        }
      }
    }
    CONGRESS_METRIC_SET("estimator.last_mean_relative_bound",
                        terms == 0 ? 0.0 : total / static_cast<double>(terms));
  }
#endif
  return result;
}

}  // namespace congress
