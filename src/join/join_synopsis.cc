#include "join/join_synopsis.h"

#include "sampling/builder.h"

namespace congress {

Result<JoinSynopsis> JoinSynopsis::Build(const StarSchema& schema,
                                         const JoinSynopsisConfig& config) {
  CONGRESS_RETURN_NOT_OK(ValidateStarSchema(schema));
  auto widener = StarJoinWidener::Create(schema);
  if (!widener.ok()) return widener.status();
  const Schema& widened = widener->widened_schema();
  auto grouping = ResolveGroupingIndices(widened, config.grouping_columns);
  if (!grouping.ok()) return grouping.status();
  auto sample_size = ResolveSampleSize(
      config.sample_size, config.sample_fraction, schema.fact->num_rows());
  if (!sample_size.ok()) return sample_size.status();

  // Widen every fact row once, keeping only its grouping cells: the
  // census of that grouping-only table supplies the strata and maps each
  // fact row to its stratum, as for a base relation.
  std::vector<Field> key_fields;
  std::vector<size_t> key_columns;
  for (size_t c : *grouping) {
    key_columns.push_back(key_fields.size());
    key_fields.push_back(widened.field(c));
  }
  Table keys{Schema(std::move(key_fields))};
  keys.Reserve(schema.fact->num_rows());
  std::vector<Value> row;
  std::vector<Value> cells(grouping->size());
  for (size_t r = 0; r < schema.fact->num_rows(); ++r) {
    CONGRESS_RETURN_NOT_OK(widener->Widen(r, &row));
    for (size_t i = 0; i < cells.size(); ++i) cells[i] = row[(*grouping)[i]];
    CONGRESS_RETURN_NOT_OK(keys.AppendRow(cells));
  }
  auto census = GroupCensus::Build(keys, key_columns);
  if (!census.ok()) return census.status();

  Random rng(config.seed);
  auto drawn = DrawStratifiedRows(
      *census,
      Allocate(config.strategy, census->stats,
               static_cast<double>(*sample_size)),
      &rng);
  if (!drawn.ok()) return drawn.status();

  // The drawn fact rows are widened again, in stratum order, into the
  // sample; the full join is never materialized.
  JoinSynopsis synopsis;
  synopsis.widened_schema_ = widened;
  synopsis.grouping_indices_ = *grouping;
  synopsis.estimator_ = config.estimator;
  synopsis.sample_ = StratifiedSample(widened, *grouping);
  const GroupStatistics& stats = census->stats;
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    CONGRESS_RETURN_NOT_OK(
        synopsis.sample_.DeclareStratum(stats.keys()[i], stats.counts()[i]));
  }
  for (const std::vector<uint64_t>& rows : *drawn) {
    for (uint64_t r : rows) {
      CONGRESS_RETURN_NOT_OK(widener->Widen(static_cast<size_t>(r), &row));
      CONGRESS_RETURN_NOT_OK(synopsis.sample_.AppendRowValues(row));
    }
  }
  synopsis.moments_ = SampleMoments::Compute(synopsis.sample_);
  return synopsis;
}

Result<ApproximateResult> JoinSynopsis::Answer(
    const GroupByQuery& query) const {
  return EstimateGroupBy(sample_, moments_, query, estimator_);
}

}  // namespace congress
