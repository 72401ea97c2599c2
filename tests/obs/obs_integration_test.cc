// End-to-end check that the hot paths actually emit telemetry: running
// the exact engine over a 50k-row lineitem table under an obs::Scope
// must attribute nonzero time to the intern / merge / aggregate stages
// (project / aggregate when an exact roll-up memo supplies the group
// ids) and bump the engine counters. The sample estimator likewise projects
// strata, without interning, for queries on its grouping columns. A
// range over a clustered column lets the zone map skip batches or take
// them whole, and publish records the zone map's own span. Only visited
// batches count as scanned rows, and a warm exact roll-up scans none.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/aqua.h"
#include "core/estimator.h"
#include "engine/exact_rollups.h"
#include "engine/executor.h"
#include "engine/zone_map.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "sampling/builder.h"
#include "storage/group_index.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"

namespace congress {
namespace {

TEST(ObsIntegrationTest, ExactQueryEmitsStageSpans) {
#ifdef CONGRESS_DISABLE_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  tpcd::LineitemConfig config;
  config.num_tuples = 50'000;
  config.num_groups = 200;
  config.seed = 42;
  auto data = tpcd::GenerateLineitem(config);
  ASSERT_TRUE(data.ok());

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  uint64_t queries_before = registry.GetCounter("engine.exact_queries").value();
  uint64_t rows_before = registry.GetCounter("engine.rows_scanned").value();

  obs::Scope root("query");
  ExecutorOptions options;
  options.scope = &root;
  options.num_threads = 4;
  auto result = ExecuteExact(data->table, tpcd::MakeQg3(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->num_groups(), 0u);

  for (const char* stage : {"intern", "merge", "aggregate"}) {
    const obs::Scope* span = root.Find(stage);
    ASSERT_NE(span, nullptr) << "missing span: " << stage;
    EXPECT_GT(span->invocations(), 0u) << stage;
    EXPECT_GT(span->total_nanos(), 0u) << stage;
  }

  EXPECT_EQ(registry.GetCounter("engine.exact_queries").value(),
            queries_before + 1);
  EXPECT_EQ(registry.GetCounter("engine.rows_scanned").value(),
            rows_before + data->table.num_rows());

  // The flattened report (what benches embed in --json) carries the same
  // stages as top-level paths.
  auto flat = root.Flatten();
  auto has = [&flat](const std::string& path) {
    for (const auto& [p, seconds] : flat) {
      if (p == path && seconds > 0.0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("intern"));
  EXPECT_TRUE(has("merge"));
  EXPECT_TRUE(has("aggregate"));
#endif
}

TEST(ObsIntegrationTest, CoveringScanEmitsProjectSpan) {
#ifdef CONGRESS_DISABLE_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  tpcd::LineitemConfig config;
  config.num_tuples = 50'000;
  config.num_groups = 200;
  config.seed = 42;
  auto data = tpcd::GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  const auto table = std::make_shared<const Table>(std::move(data->table));
  // A ranged query folds its rows per query, through the memo's ids.
  GroupByQuery query = tpcd::MakeQg3();
  query.predicate = MakeRangePredicate(tpcd::kLId, 10'000.5, 40'000.5);
  // An index over the query's grouping columns plus one more covers it.
  std::vector<size_t> finest = query.group_columns;
  for (size_t c = 0; c < table->num_columns(); ++c) {
    if (std::find(finest.begin(), finest.end(), c) == finest.end() &&
        table->schema().field(c).type == DataType::kString) {
      finest.push_back(c);
      break;
    }
  }
  auto index = GroupIndex::Build(*table, finest);
  ASSERT_TRUE(index.ok());
  const ExactRollups rollups(
      table, std::make_shared<const GroupIndex>(std::move(*index)), nullptr);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t covering_before =
      registry.GetCounter("engine.exact_covering_scans").value();
  const uint64_t queries_before =
      registry.GetCounter("engine.exact_queries").value();

  obs::Scope root("query");
  ExecutorOptions options;
  options.scope = &root;
  options.num_threads = 4;
  auto result = rollups.Execute(query, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->num_groups(), 0u);

  for (const char* stage : {"project", "aggregate"}) {
    const obs::Scope* span = root.Find(stage);
    ASSERT_NE(span, nullptr) << "missing span: " << stage;
    EXPECT_GT(span->invocations(), 0u) << stage;
    EXPECT_GT(span->total_nanos(), 0u) << stage;
  }
  // The projection replaces interning: no per-row hashing stage ran.
  EXPECT_EQ(root.Find("intern"), nullptr);
  EXPECT_EQ(registry.GetCounter("engine.exact_covering_scans").value(),
            covering_before + 1);
  EXPECT_EQ(registry.GetCounter("engine.exact_queries").value(),
            queries_before + 1);

  // The second answer reads the memoized projection.
  obs::Scope warm("query");
  options.scope = &warm;
  ASSERT_TRUE(rollups.Execute(query, options).ok());
  EXPECT_EQ(warm.Find("project"), nullptr);
  EXPECT_NE(warm.Find("aggregate"), nullptr);
  EXPECT_EQ(registry.GetCounter("engine.exact_covering_scans").value(),
            covering_before + 2);

  // The self-built path does not count as a covering scan.
  ASSERT_TRUE(ExecuteExact(*table, query).ok());
  EXPECT_EQ(registry.GetCounter("engine.exact_covering_scans").value(),
            covering_before + 2);
#endif
}

TEST(ObsIntegrationTest, CoveredEstimateRollsUpTheMoments) {
#ifdef CONGRESS_DISABLE_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  tpcd::LineitemConfig config;
  config.num_tuples = 50'000;
  config.num_groups = 200;
  config.seed = 42;
  auto data = tpcd::GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  Random rng(7);
  auto sample = BuildSample(data->table, tpcd::LineitemGroupingColumns(),
                            AllocationStrategy::kCongress, 2'500.0, &rng);
  ASSERT_TRUE(sample.ok());

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t covered_before =
      registry.GetCounter("estimator.covered_queries").value();
  auto has_intern = [](const obs::Scope& root) {
    for (const auto& [path, seconds] : root.Flatten()) {
      if (path.find("intern") != std::string::npos) return true;
    }
    return false;
  };

  // Qg2 groups on two of the three grouping columns without a predicate:
  // its output groups are unions of strata, rolled up from the strata's
  // moments through the memoized projection, with no row read or hashed.
  const SampleMoments moments = SampleMoments::Compute(*sample);
  obs::Scope root("query");
  ExecutorOptions options;
  options.scope = &root;
  auto covered =
      EstimateGroupBy(*sample, moments, tpcd::MakeQg2(), {}, options);
  ASSERT_TRUE(covered.ok());
  EXPECT_GT(covered->num_groups(), 0u);
  const obs::Scope* rollup = root.Find("estimate/rollup");
  ASSERT_NE(rollup, nullptr);
  EXPECT_EQ(rollup->invocations(), 1u);
  EXPECT_GT(rollup->total_nanos(), 0u);
  EXPECT_EQ(root.Find("estimate/project"), nullptr);
  EXPECT_EQ(root.Find("estimate/eval_batch"), nullptr);
  EXPECT_FALSE(has_intern(root));
  EXPECT_EQ(registry.GetCounter("estimator.covered_queries").value(),
            covered_before + 1);

  // Grouping on a non-grouping column interns finer units instead and
  // does not count as covered.
  GroupByQuery uncovered = tpcd::MakeQg2();
  uncovered.group_columns = {tpcd::kLQuantity};
  obs::Scope other("query");
  options.scope = &other;
  ASSERT_TRUE(EstimateGroupBy(*sample, moments, uncovered, {}, options).ok());
  EXPECT_TRUE(has_intern(other));
  EXPECT_EQ(registry.GetCounter("estimator.covered_queries").value(),
            covered_before + 1);
#endif
}

TEST(ObsIntegrationTest, ClusteredRangeSkipsAndTakesWholeBatches) {
#ifdef CONGRESS_DISABLE_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  tpcd::LineitemConfig config;
  config.num_tuples = 50'000;
  config.num_groups = 200;
  config.seed = 42;
  auto data = tpcd::GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  const ZoneMap zones = ZoneMap::Build(data->table);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  auto counter = [&registry](const char* name) {
    return registry.GetCounter(name).value();
  };
  const uint64_t skipped_before = counter("kernels.match.batches_skipped");
  const uint64_t whole_before = counter("kernels.match.batches_whole");
  const uint64_t filtered_before = counter("kernels.match.batches");

  // l_id is the row number, so a range over it is one run of rows: every
  // batch but the two at its ends lies wholly inside or outside it.
  GroupByQuery ranged = tpcd::MakeQg3();
  ranged.predicate = MakeRangePredicate(tpcd::kLId, 10'000.5, 40'000.5);
  obs::Scope root("query");
  ExecutorOptions options;
  options.scope = &root;
  auto result = ExecuteExact(data->table, ranged, options, &zones);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->num_groups(), 0u);
  EXPECT_GT(counter("kernels.match.batches_skipped"), skipped_before);
  EXPECT_GT(counter("kernels.match.batches_whole"), whole_before);
  const uint64_t filtered = counter("kernels.match.batches") - filtered_before;
  EXPECT_GE(filtered, 1u);
  EXPECT_LE(filtered, 2u);
  const obs::Scope* match = root.Find("aggregate/match_batch");
  ASSERT_NE(match, nullptr);
  EXPECT_EQ(match->invocations(), 1u);

  // Without a predicate nothing is classified, skipped or filtered.
  const uint64_t skipped_mid = counter("kernels.match.batches_skipped");
  const uint64_t whole_mid = counter("kernels.match.batches_whole");
  const uint64_t filtered_mid = counter("kernels.match.batches");
  obs::Scope dense("query");
  options.scope = &dense;
  ASSERT_TRUE(
      ExecuteExact(data->table, tpcd::MakeQg3(), options, &zones)
          .ok());
  EXPECT_EQ(counter("kernels.match.batches_skipped"), skipped_mid);
  EXPECT_EQ(counter("kernels.match.batches_whole"), whole_mid);
  EXPECT_EQ(counter("kernels.match.batches"), filtered_mid);
  EXPECT_EQ(dense.Find("aggregate/match_batch"), nullptr);
#endif
}

TEST(ObsIntegrationTest, RowsScannedCountsOnlyVisitedBatches) {
#ifdef CONGRESS_DISABLE_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  tpcd::LineitemConfig config;
  config.num_tuples = 50'000;
  config.num_groups = 200;
  config.seed = 42;
  auto data = tpcd::GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  const ZoneMap zones = ZoneMap::Build(data->table);
  const obs::Counter& scanned =
      obs::MetricsRegistry::Global().GetCounter("engine.rows_scanned");

  // A clustered range keeps 30,000 of 50,000 rows: the batches the zones
  // skip are not scanned, so fewer rows than the table's are counted.
  GroupByQuery ranged = tpcd::MakeQg3();
  ranged.predicate = MakeRangePredicate(tpcd::kLId, 10'000.5, 40'000.5);
  uint64_t before = scanned.value();
  ASSERT_TRUE(ExecuteExact(data->table, ranged, {}, &zones).ok());
  const uint64_t counted = scanned.value() - before;
  EXPECT_GE(counted, 30'000u);
  EXPECT_LT(counted, data->table.num_rows());

  // Without zones every batch is visited.
  before = scanned.value();
  ASSERT_TRUE(ExecuteExact(data->table, ranged).ok());
  EXPECT_EQ(scanned.value() - before, data->table.num_rows());
#endif
}

TEST(ObsIntegrationTest, WarmRollupAnswerScansNothing) {
#ifdef CONGRESS_DISABLE_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  tpcd::LineitemConfig config;
  config.num_tuples = 50'000;
  config.num_groups = 200;
  config.seed = 42;
  auto data = tpcd::GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  const auto table = std::make_shared<const Table>(data->table);
  auto census = GroupIndex::Build(*table, tpcd::LineitemGroupingColumns());
  ASSERT_TRUE(census.ok());
  const ExactRollups rollups(
      table, std::make_shared<const GroupIndex>(std::move(*census)), nullptr);
  GroupByQuery query = tpcd::MakeQg3();
  query.group_columns.pop_back();
  query.aggregates.push_back({AggregateKind::kCount, 0});

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  auto counter = [&registry](const char* name) {
    return registry.GetCounter(name).value();
  };
  // The first answer builds the entry (projection and key order) and
  // folds the SUM's state once.
  uint64_t hits = counter("engine.exact_rollup_hits");
  uint64_t builds = counter("engine.exact_rollup_builds");
  uint64_t scanned = counter("engine.rows_scanned");
  obs::Scope cold("query");
  ExecutorOptions options;
  options.scope = &cold;
  auto first = rollups.Execute(query, options);
  ASSERT_TRUE(first.ok());
  EXPECT_NE(cold.Find("project"), nullptr);
  EXPECT_NE(cold.Find("rollup/aggregate"), nullptr);
  EXPECT_EQ(counter("engine.exact_rollup_hits") - hits, 1u);
  EXPECT_EQ(counter("engine.exact_rollup_builds") - builds, 2u);
  EXPECT_EQ(counter("engine.rows_scanned") - scanned, table->num_rows());

  // The second reads everything from the memo: no projection, no fold.
  hits = counter("engine.exact_rollup_hits");
  builds = counter("engine.exact_rollup_builds");
  scanned = counter("engine.rows_scanned");
  obs::Scope warm("query");
  options.scope = &warm;
  auto second = rollups.Execute(query, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->num_groups(), first->num_groups());
  for (const char* stage : {"rollup", "finalize"}) {
    const obs::Scope* span = warm.Find(stage);
    ASSERT_NE(span, nullptr) << "missing span: " << stage;
    EXPECT_EQ(span->invocations(), 1u) << stage;
  }
  EXPECT_EQ(warm.Find("project"), nullptr);
  EXPECT_EQ(warm.Find("aggregate"), nullptr);
  EXPECT_EQ(warm.Find("rollup/aggregate"), nullptr);
  EXPECT_EQ(counter("engine.exact_rollup_hits") - hits, 1u);
  EXPECT_EQ(counter("engine.exact_rollup_builds"), builds);
  EXPECT_EQ(counter("engine.rows_scanned"), scanned);
#endif
}

TEST(ObsIntegrationTest, PublishRecordsZonesSpan) {
#ifdef CONGRESS_DISABLE_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  tpcd::LineitemConfig config;
  config.num_tuples = 20'000;
  config.num_groups = 50;
  config.seed = 42;
  auto data = tpcd::GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  obs::Scope root("publish");
  SynopsisConfig synopsis;
  synopsis.grouping_columns = tpcd::LineitemGroupingColumnNames();
  synopsis.sample_size = 1'000;
  synopsis.execution.scope = &root;
  AquaEngine engine;
  ASSERT_TRUE(
      engine.RegisterTable("lineitem", std::move(data->table), synopsis).ok());
  const obs::Scope* zones = root.Find("zones");
  ASSERT_NE(zones, nullptr);
  EXPECT_EQ(zones->invocations(), 1u);
  EXPECT_GT(zones->total_nanos(), 0u);
  auto snapshot = engine.GetSnapshot("lineitem");
  ASSERT_TRUE(snapshot.ok());
  ASSERT_NE((*snapshot)->exact_rollups, nullptr);
  ASSERT_NE((*snapshot)->exact_rollups->zones(), nullptr);
  EXPECT_EQ((*snapshot)->exact_rollups->zones()->num_rows(), 20'000u);
#endif
}

}  // namespace
}  // namespace congress
