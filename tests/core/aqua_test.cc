#include "core/aqua.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "resilience/recovery.h"
#include "testing/oracles.h"
#include "tpcd/lineitem.h"

namespace congress {
namespace {

Table SalesTable() {
  Table t{Schema({Field{"region", DataType::kString},
                  Field{"kind", DataType::kInt64},
                  Field{"amount", DataType::kDouble}})};
  int serial = 0;
  auto fill = [&](const char* region, int64_t kind, int n) {
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(t.AppendRow({Value(region), Value(kind),
                               Value(static_cast<double>(serial++ % 9 + 1))})
                      .ok());
    }
  };
  fill("east", 0, 600);
  fill("east", 1, 200);
  fill("west", 0, 150);
  fill("west", 1, 50);
  return t;
}

SynopsisConfig SalesConfig() {
  SynopsisConfig config;
  config.grouping_columns = {"region", "kind"};
  config.sample_fraction = 0.2;
  config.seed = 3;
  return config;
}

class AquaEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.RegisterTable("sales", SalesTable(), SalesConfig())
                    .ok());
  }
  AquaEngine engine_;
};

TEST_F(AquaEngineTest, RegisterAndCatalog) {
  EXPECT_TRUE(engine_.HasTable("sales"));
  EXPECT_FALSE(engine_.HasTable("nope"));
  EXPECT_EQ(engine_.TableNames(), (std::vector<std::string>{"sales"}));
  EXPECT_FALSE(
      engine_.RegisterTable("sales", SalesTable(), SalesConfig()).ok());
  auto table = engine_.GetTable("sales");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1000u);
  auto synopsis = engine_.GetSynopsis("sales");
  ASSERT_TRUE(synopsis.ok());
  EXPECT_EQ((*synopsis)->sample().num_rows(), 200u);
}

TEST_F(AquaEngineTest, RegisterFailsOnBadConfigWithoutRetaining) {
  SynopsisConfig bad = SalesConfig();
  bad.grouping_columns = {"nonexistent"};
  EXPECT_FALSE(engine_.RegisterTable("bad", SalesTable(), bad).ok());
  EXPECT_FALSE(engine_.HasTable("bad"));
}

TEST_F(AquaEngineTest, SqlQueryEndToEnd) {
  auto approx = engine_.Query(
      "SELECT region, SUM(amount) FROM sales GROUP BY region");
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_EQ(approx->num_groups(), 2u);
  auto exact = engine_.QueryExact(
      "SELECT region, SUM(amount) FROM sales GROUP BY region");
  ASSERT_TRUE(exact.ok());
  for (const GroupResult& row : exact->rows()) {
    const auto est = approx->Find(row.key);
    ASSERT_TRUE(est.has_value());
    EXPECT_NEAR(est->estimates[0], row.aggregates[0],
                0.2 * row.aggregates[0]);
    EXPECT_GT(est->bounds[0], 0.0);
  }
}

TEST_F(AquaEngineTest, QueryWithPredicate) {
  auto approx = engine_.Query(
      "SELECT SUM(amount) FROM sales WHERE kind = 1");
  ASSERT_TRUE(approx.ok());
  ASSERT_EQ(approx->num_groups(), 1u);
  auto all = engine_.Query("SELECT SUM(amount) FROM sales");
  ASSERT_TRUE(all.ok());
  EXPECT_LT(approx->rows()[0].estimates[0], all->rows()[0].estimates[0]);
}

TEST_F(AquaEngineTest, QueryViaStrategiesAgree) {
  const char* sql =
      "SELECT region, kind, AVG(amount), COUNT(*) FROM sales "
      "GROUP BY region, kind";
  auto reference = engine_.QueryVia(sql, RewriteStrategy::kIntegrated);
  ASSERT_TRUE(reference.ok());
  for (auto strategy :
       {RewriteStrategy::kNestedIntegrated, RewriteStrategy::kNormalized,
        RewriteStrategy::kKeyNormalized}) {
    auto result = engine_.QueryVia(sql, strategy);
    ASSERT_TRUE(result.ok());
    for (const GroupResult& row : reference->rows()) {
      const GroupResult* other = result->Find(row.key);
      ASSERT_NE(other, nullptr);
      for (size_t a = 0; a < row.aggregates.size(); ++a) {
        EXPECT_NEAR(other->aggregates[a], row.aggregates[a],
                    1e-6 * std::abs(row.aggregates[a]) + 1e-9);
      }
    }
  }
}

TEST_F(AquaEngineTest, ExplainRewriteNamesSynopsisRelations) {
  auto sql = engine_.ExplainRewrite(
      "SELECT region, SUM(amount) FROM sales GROUP BY region",
      RewriteStrategy::kIntegrated);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("bs_sales"), std::string::npos);
  EXPECT_NE(sql->find("sum(amount*sf)"), std::string::npos);
  EXPECT_NE(sql->find("sum_error"), std::string::npos);

  auto normalized = engine_.ExplainRewrite(
      "SELECT region, SUM(amount) FROM sales GROUP BY region",
      RewriteStrategy::kNormalized);
  ASSERT_TRUE(normalized.ok());
  EXPECT_NE(normalized->find("aux_sales"), std::string::npos);
}

TEST_F(AquaEngineTest, ErrorsRouteCleanly) {
  EXPECT_FALSE(engine_.Query("SELECT SUM(amount) FROM unknown").ok());
  EXPECT_FALSE(engine_.Query("not sql at all").ok());
  EXPECT_FALSE(
      engine_.Query("SELECT SUM(bogus_column) FROM sales").ok());
  EXPECT_FALSE(engine_.QueryExact("SELECT SUM(x) FROM unknown").ok());
  EXPECT_FALSE(
      engine_.ExplainRewrite("garbage", RewriteStrategy::kIntegrated).ok());
}

TEST_F(AquaEngineTest, InsertRequiresIncrementalSynopsis) {
  Status st =
      engine_.Insert("sales", {Value("east"), Value(int64_t{0}), Value(1.0)});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // Base table unchanged on failure.
  auto table = engine_.GetTable("sales");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1000u);
}

TEST_F(AquaEngineTest, IncrementalInsertFlowsThrough) {
  struct Case {
    AllocationStrategy strategy;
    int inserts;
    int64_t kind;
    double amount;
  };
  for (const Case& c : {Case{AllocationStrategy::kCongress, 100, 2, 5.0},
                        Case{AllocationStrategy::kSenate, 50, 0, 2.0}}) {
    SCOPED_TRACE(AllocationStrategyToString(c.strategy));
    SynopsisConfig config = SalesConfig();
    config.strategy = c.strategy;
    config.incremental = true;
    AquaEngine engine;
    ASSERT_TRUE(engine.RegisterTable("live", SalesTable(), config).ok());
    // A brand-new group streams in.
    for (int i = 0; i < c.inserts; ++i) {
      ASSERT_TRUE(engine
                      .Insert("live", {Value("north"), Value(c.kind),
                                       Value(c.amount)})
                      .ok());
    }
    ASSERT_TRUE(engine.Refresh("live").ok());
    const uint64_t rows = 1000u + static_cast<uint64_t>(c.inserts);
    auto table = engine.GetTable("live");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->num_rows(), rows);
    auto synopsis = engine.GetSynopsis("live");
    ASSERT_TRUE(synopsis.ok());
    const StratifiedSample& sample = (*synopsis)->sample();
    EXPECT_EQ(sample.total_population(), rows);
    auto stratum = sample.StratumIndex({Value("north"), Value(c.kind)});
    ASSERT_TRUE(stratum.ok());
    EXPECT_GT(sample.strata()[*stratum].sample_count, 0u);

    auto approx = engine.Query(
        "SELECT region, SUM(amount) FROM live GROUP BY region");
    ASSERT_TRUE(approx.ok());
    EXPECT_TRUE(approx->Find({Value("north")}).has_value());
    auto exact = engine.QueryExact(
        "SELECT region, SUM(amount) FROM live GROUP BY region");
    ASSERT_TRUE(exact.ok());
    const GroupResult* north = exact->Find({Value("north")});
    ASSERT_NE(north, nullptr);
    EXPECT_DOUBLE_EQ(north->aggregates[0], c.inserts * c.amount);
  }
}

TEST_F(AquaEngineTest, EveryPublishRecordsZones) {
  // Registration and every Refresh, incremental ones included, record
  // zone bounds over the whole published table in the snapshot's exact
  // roll-ups; a restored snapshot, which has no base rows, has neither.
  SynopsisConfig config = SalesConfig();
  config.incremental = true;
  AquaEngine engine;
  ASSERT_TRUE(engine.RegisterTable("live", SalesTable(), config).ok());
  auto first = engine.GetSnapshot("live");
  ASSERT_TRUE(first.ok());
  ASSERT_NE((*first)->exact_rollups->zones(), nullptr);
  EXPECT_EQ((*first)->exact_rollups->zones()->num_rows(), 1000u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine
                    .Insert("live", {Value("north"), Value(int64_t{2}),
                                     Value(100.0)})
                    .ok());
  }
  ASSERT_TRUE(engine.Refresh("live").ok());
  auto second = engine.GetSnapshot("live");
  ASSERT_TRUE(second.ok());
  ASSERT_NE((*second)->exact_rollups->zones(), nullptr);
  EXPECT_EQ((*second)->exact_rollups->zones()->num_rows(), 1005u);
  // Only the inserted rows reach 100: every zone but the last is
  // skipped, and the answer is the filter's.
  auto exact = engine.QueryExact(
      "SELECT region, COUNT(*) FROM live WHERE amount >= 50 GROUP BY region");
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(exact->num_groups(), 1u);
  EXPECT_EQ(exact->rows()[0].key, GroupKey{Value("north")});
  EXPECT_EQ(exact->rows()[0].aggregates[0], 5.0);

  const std::string path = ::testing::TempDir() + "/aqua_test_zones.snap";
  ASSERT_TRUE(engine.Checkpoint("live", path).ok());
  AquaEngine restored;
  Status st = restored.RestoreTable("live", path, config);
  std::remove(path.c_str());
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto snapshot = restored.GetSnapshot("live");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->exact_rollups, nullptr);
}

/// A relation grouped on a double column, so a grouping cell can be NaN.
Table LevelTable() {
  Table t{Schema({Field{"region", DataType::kString},
                  Field{"level", DataType::kDouble},
                  Field{"amount", DataType::kDouble}})};
  for (int i = 0; i < 400; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(i % 2 == 0 ? "east" : "west"),
                             Value(static_cast<double>(i % 4)),
                             Value(static_cast<double>(i % 7 + 1))})
                    .ok());
  }
  return t;
}

SynopsisConfig LevelConfig(AllocationStrategy strategy) {
  SynopsisConfig config;
  config.grouping_columns = {"region", "level"};
  config.sample_fraction = 0.25;
  config.seed = 5;
  config.strategy = strategy;
  config.incremental = true;
  return config;
}

TEST(AquaNaNGroupingTest, InsertOfANaNGroupingCellIsRefused) {
  // A NaN grouping cell would stratify nothing. Insert and InsertBatch
  // refuse it whole, nothing of the refused batch is buffered, and the
  // next Refresh publishes the valid rows.
  const std::vector<Value> nan_row = {Value("east"), Value(std::nan("")),
                                      Value(1.0)};
  for (AllocationStrategy strategy :
       {AllocationStrategy::kHouse, AllocationStrategy::kSenate,
        AllocationStrategy::kBasicCongress, AllocationStrategy::kCongress}) {
    SCOPED_TRACE(AllocationStrategyToString(strategy));
    AquaEngine engine;
    ASSERT_TRUE(
        engine.RegisterTable("t", LevelTable(), LevelConfig(strategy)).ok());
    EXPECT_EQ(engine.Insert("t", nan_row).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine
                  .InsertBatch("t", {{Value("west"), Value(1.0), Value(2.0)},
                                     nan_row})
                  .code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(
        engine.Insert("t", {Value("west"), Value(2.0), Value(3.0)}).ok());
    const Status refreshed = engine.Refresh("t");
    ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
    auto snapshot = engine.GetSnapshot("t");
    ASSERT_TRUE(snapshot.ok());
    EXPECT_EQ((*snapshot)->table->num_rows(), 401u);
    EXPECT_EQ((*snapshot)->synopsis->tuples_seen(), 401u);
    EXPECT_NE((*snapshot)->exact_rollups, nullptr);
    auto exact =
        engine.QueryExact("SELECT level, COUNT(*) FROM t GROUP BY level");
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_EQ(exact->num_groups(), 4u);
  }
}

TEST(AquaNaNGroupingTest, RegisterRefusesANaNGroupingCellOnBothPaths) {
  // The census refuses a NaN grouping cell on the two-pass path, and
  // ingest refuses it on the incremental one, with the same status.
  Table table = LevelTable();
  ASSERT_TRUE(
      table.AppendRow({Value("west"), Value(std::nan("")), Value(1.0)}).ok());
  SynopsisConfig two_pass = LevelConfig(AllocationStrategy::kCongress);
  two_pass.incremental = false;
  AquaEngine engine;
  const Status censused = engine.RegisterTable("a", table, two_pass);
  const Status ingested = engine.RegisterTable(
      "b", table, LevelConfig(AllocationStrategy::kCongress));
  EXPECT_EQ(censused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ingested.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(censused.message(), ingested.message());
  EXPECT_FALSE(engine.HasTable("a"));
  EXPECT_FALSE(engine.HasTable("b"));
}

TEST_F(AquaEngineTest, BuildMatchesFirstPublishBitForBit) {
  // One-pass AquaSynopsis::Build and the engine's register path are one
  // mechanism: the first published sample equals the built one bit for
  // bit, for every strategy and shard count. The skewed table spans
  // several register batches, so four shards really split the stream.
  tpcd::LineitemConfig lineitem;
  lineitem.num_tuples = 5000;
  lineitem.num_groups = 64;
  lineitem.seed = 17;
  auto data = tpcd::GenerateLineitem(lineitem);
  ASSERT_TRUE(data.ok());
  const Table& base = data->table;
  for (AllocationStrategy strategy :
       {AllocationStrategy::kHouse, AllocationStrategy::kSenate,
        AllocationStrategy::kBasicCongress, AllocationStrategy::kCongress}) {
    SynopsisConfig config;
    config.strategy = strategy;
    config.sample_fraction = 0.1;
    config.grouping_columns = tpcd::LineitemGroupingColumnNames();
    config.incremental = true;
    auto built = AquaSynopsis::Build(base, config);
    ASSERT_TRUE(built.ok());
    for (size_t shards : {1u, 4u}) {
      SCOPED_TRACE(std::string(AllocationStrategyToString(strategy)) + " x" +
                   std::to_string(shards));
      config.ingest_shards = shards;
      AquaEngine engine;
      ASSERT_TRUE(engine.RegisterTable("live", base, config).ok());
      auto published = engine.GetSynopsis("live");
      ASSERT_TRUE(published.ok());
      Status same = testing::CheckSamplesIdentical(
          built->sample(), (*published)->sample(), "built", "published");
      EXPECT_TRUE(same.ok()) << same.ToString();
      EXPECT_EQ(built->target_size(), (*published)->target_size());
      EXPECT_EQ(built->tuples_seen(), (*published)->tuples_seen());
    }
  }
}

TEST_F(AquaEngineTest, PublishInternsTheBaseRelationOnce) {
#ifdef CONGRESS_DISABLE_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  // A publish interns the working table once. The primary, both
  // fallbacks, the fleet summaries and the snapshot's exact roll-ups
  // all read that one census.
  const obs::Counter& builds =
      obs::MetricsRegistry::Global().GetCounter("group_index.builds");
  SynopsisConfig fleet = SalesConfig();
  fleet.fleet_histogram = true;
  fleet.fleet_wavelet = true;
  SynopsisConfig incremental = SalesConfig();
  incremental.incremental = true;
  for (const SynopsisConfig& config : {SalesConfig(), fleet, incremental}) {
    SCOPED_TRACE(std::string(config.incremental ? "incremental"
                             : config.fleet_histogram ? "fleet"
                                                      : "default"));
    AquaEngine engine;
    uint64_t before = builds.value();
    ASSERT_TRUE(engine.RegisterTable("t", SalesTable(), config).ok());
    EXPECT_EQ(builds.value() - before, 1u);
    auto snapshot = engine.GetSnapshot("t");
    ASSERT_TRUE(snapshot.ok());
    EXPECT_NE((*snapshot)->exact_rollups, nullptr);
    EXPECT_NE((*snapshot)->fallback_basic, nullptr);
    EXPECT_NE((*snapshot)->fallback_house, nullptr);
    EXPECT_EQ((*snapshot)->histogram != nullptr, config.fleet_histogram);
    EXPECT_EQ((*snapshot)->wavelet != nullptr, config.fleet_wavelet);
    if (config.incremental) {
      ASSERT_TRUE(engine
                      .Insert("t", {Value("north"), Value(int64_t{2}),
                                    Value(4.0)})
                      .ok());
      before = builds.value();
      ASSERT_TRUE(engine.Refresh("t").ok());
      EXPECT_EQ(builds.value() - before, 1u);
    }
  }
#endif
}

TEST_F(AquaEngineTest, InsertBatchFlowsThrough) {
  SynopsisConfig config = SalesConfig();
  config.incremental = true;
  config.ingest_shards = 4;
  AquaEngine engine;
  ASSERT_TRUE(engine.RegisterTable("live", SalesTable(), config).ok());
  std::vector<std::vector<Value>> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back({Value("north"), Value(int64_t{2}), Value(5.0)});
  }
  ASSERT_TRUE(engine.InsertBatch("live", batch).ok());
  ASSERT_TRUE(engine.Refresh("live").ok());
  auto table = engine.GetTable("live");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1100u);
  auto exact = engine.QueryExact(
      "SELECT region, SUM(amount) FROM live GROUP BY region");
  ASSERT_TRUE(exact.ok());
  const GroupResult* north = exact->Find({Value("north")});
  ASSERT_NE(north, nullptr);
  EXPECT_DOUBLE_EQ(north->aggregates[0], 500.0);

  // One bad row rejects the whole batch and buffers nothing.
  batch.push_back({Value("torn")});
  EXPECT_FALSE(engine.InsertBatch("live", batch).ok());
  ASSERT_TRUE(engine.Refresh("live").ok());
  table = engine.GetTable("live");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1100u);
}

TEST_F(AquaEngineTest, NonIncrementalSnapshotSharesTheRegisteredTable) {
  // A relation that never appends keeps the table it was registered
  // with: the snapshot holds that very object, not a copy.
  Table sales = SalesTable();
  const double* amounts = sales.DoubleColumn(2).data();
  AquaEngine engine;
  ASSERT_TRUE(engine.RegisterTable("t", std::move(sales), SalesConfig()).ok());
  auto before = engine.GetSnapshot("t");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)->table->DoubleColumn(2).data(), amounts);
  ASSERT_TRUE(engine.Refresh("t").ok());  // Nothing to drain: a no-op.
  auto after = engine.GetSnapshot("t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->table.get(), (*before)->table.get());
}

TEST_F(AquaEngineTest, IncrementalPublishNeverMutatesAPinnedTable) {
  SynopsisConfig config = SalesConfig();
  config.incremental = true;
  AquaEngine engine;
  ASSERT_TRUE(engine.RegisterTable("live", SalesTable(), config).ok());
  auto pinned = engine.GetSnapshot("live");
  ASSERT_TRUE(pinned.ok());
  const Table& old_table = *(*pinned)->table;
  const size_t old_rows = old_table.num_rows();
  const Value old_last = old_table.GetValue(old_rows - 1, 2);

  ASSERT_TRUE(
      engine.Insert("live", {Value("north"), Value(int64_t{2}), Value(77.0)})
          .ok());
  ASSERT_TRUE(engine.Refresh("live").ok());
  EXPECT_EQ(old_table.num_rows(), old_rows);
  EXPECT_EQ(old_table.GetValue(old_rows - 1, 2), old_last);

  auto fresh = engine.GetSnapshot("live");
  ASSERT_TRUE(fresh.ok());
  const Table& new_table = *(*fresh)->table;
  ASSERT_EQ(new_table.num_rows(), old_rows + 1);
  EXPECT_EQ(new_table.GetValue(old_rows, 0), Value("north"));
  EXPECT_EQ(new_table.GetValue(old_rows, 2), Value(77.0));
}

TEST_F(AquaEngineTest, ShardCountInvariantPublish) {
  // Deterministic ingest: the same insert stream publishes bit-identical
  // synopses whether the engine buffers through 1 shard or 4.
  auto run = [&](size_t shards) {
    SynopsisConfig config = SalesConfig();
    config.incremental = true;
    config.ingest_shards = shards;
    AquaEngine engine;
    EXPECT_TRUE(engine.RegisterTable("live", SalesTable(), config).ok());
    for (int i = 0; i < 60; ++i) {
      EXPECT_TRUE(engine
                      .Insert("live", {Value(i % 2 == 0 ? "north" : "east"),
                                       Value(int64_t{i % 3}),
                                       Value(static_cast<double>(i % 5))})
                      .ok());
      if (i == 29) {
        EXPECT_TRUE(engine.Refresh("live").ok());
      }
    }
    EXPECT_TRUE(engine.Refresh("live").ok());
    auto synopsis = engine.GetSynopsis("live");
    EXPECT_TRUE(synopsis.ok());
    return *synopsis;
  };
  auto one = run(1);
  auto four = run(4);
  Status same = testing::CheckSamplesIdentical(one->sample(), four->sample(),
                                               "1 shard", "4 shards");
  EXPECT_TRUE(same.ok()) << same.ToString();
}

TEST_F(AquaEngineTest, ConcurrentInsertersWithLiveReader) {
  SynopsisConfig config = SalesConfig();
  config.incremental = true;
  config.ingest_shards = 4;
  AquaEngine engine;
  ASSERT_TRUE(engine.RegisterTable("live", SalesTable(), config).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto approx = engine.Query(
          "SELECT region, SUM(amount) FROM live GROUP BY region");
      if (!approx.ok()) reader_errors.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  std::atomic<int> insert_errors{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      std::vector<std::vector<Value>> batch;
      for (int i = 0; i < kPerThread; ++i) {
        batch.push_back({Value(t % 2 == 0 ? "north" : "south"),
                         Value(int64_t{t}), Value(1.0)});
        if (batch.size() == 25) {
          if (!engine.InsertBatch("live", batch).ok()) {
            insert_errors.fetch_add(1);
          }
          batch.clear();
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  ASSERT_TRUE(engine.Refresh("live").ok());
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(insert_errors.load(), 0);
  EXPECT_EQ(reader_errors.load(), 0);
  auto table = engine.GetTable("live");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1000u + kThreads * kPerThread);
}

TEST_F(AquaEngineTest, ConcurrentFirstUseOfRollUpsMatchesSerial) {
  // Three grouping columns give eight roll-ups, none memoized yet when
  // eight threads answer them at once from one pinned snapshot; each
  // roll-up is also answered with a predicate, through the row fold.
  Table t{Schema({Field{"region", DataType::kString},
                  Field{"kind", DataType::kInt64},
                  Field{"bucket", DataType::kInt64},
                  Field{"amount", DataType::kDouble}})};
  const char* regions[] = {"east", "west", "north"};
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(regions[i % 3]), Value(int64_t{i % 4}),
                             Value(int64_t{i % 5}),
                             Value(static_cast<double>(i % 11) - 3.0)})
                    .ok());
  }
  SynopsisConfig config;
  config.grouping_columns = {"region", "kind", "bucket"};
  config.sample_fraction = 0.1;
  config.seed = 5;
  std::vector<GroupByQuery> queries;
  for (const std::vector<size_t>& columns : std::vector<std::vector<size_t>>{
           {}, {0}, {1}, {2}, {0, 1}, {2, 1}, {0, 2}, {0, 1, 2}}) {
    GroupByQuery q;
    q.group_columns = columns;
    q.aggregates = {{AggregateKind::kSum, 3},
                    {AggregateKind::kCount, 0},
                    {AggregateKind::kAvg, 3}};
    queries.push_back(q);
    q.predicate = MakeRangePredicate(3, 0.0, 100.0);
    queries.push_back(q);
  }

  AquaEngine serial_engine;
  ASSERT_TRUE(serial_engine.RegisterTable("t", t, config).ok());
  auto serial_snapshot = serial_engine.GetSnapshot("t");
  ASSERT_TRUE(serial_snapshot.ok());
  std::vector<ApproximateResult> serial;
  for (const GroupByQuery& q : queries) {
    auto answer = (*serial_snapshot)->synopsis->Answer(q);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    serial.push_back(std::move(answer).value());
  }

  AquaEngine engine;
  ASSERT_TRUE(engine.RegisterTable("t", t, config).ok());
  auto snapshot = engine.GetSnapshot("t");
  ASSERT_TRUE(snapshot.ok());
  const AquaSynopsis& synopsis = *(*snapshot)->synopsis;
  constexpr size_t kThreads = 8;
  std::vector<std::vector<ApproximateResult>> answers(kThreads);
  std::atomic<size_t> ready{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      // Thread i first asks roll-up i, then the others in turn.
      for (size_t k = 0; k < queries.size(); ++k) {
        auto answer =
            synopsis.Answer(queries[(2 * i + k) % queries.size()]);
        if (!answer.ok()) {
          errors.fetch_add(1);
          return;
        }
        answers[i].push_back(std::move(answer).value());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(errors.load(), 0);
  for (size_t i = 0; i < kThreads; ++i) {
    ASSERT_EQ(answers[i].size(), queries.size());
    for (size_t k = 0; k < queries.size(); ++k) {
      const Status same = testing::CheckApproximateIdentical(
          answers[i][k], serial[(2 * i + k) % queries.size()],
          "thread " + std::to_string(i) + ", query " + std::to_string(k));
      EXPECT_TRUE(same.ok()) << same.ToString();
    }
  }
}

TEST_F(AquaEngineTest, ConcurrentFirstUseOfExactRollupsMatchesSerial) {
  // Seven groupings of three census columns, none memoized yet when eight
  // threads ask them at once, exactly, from one pinned snapshot; each is
  // also asked with a predicate, which folds through the memo's entry.
  Table t{Schema({Field{"region", DataType::kString},
                  Field{"kind", DataType::kInt64},
                  Field{"bucket", DataType::kInt64},
                  Field{"amount", DataType::kDouble}})};
  const char* regions[] = {"east", "west", "north"};
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(regions[i % 3]), Value(int64_t{i % 4}),
                             Value(int64_t{i % 5}),
                             Value(static_cast<double>(i % 11) * 0.3 - 1.0)})
                    .ok());
  }
  SynopsisConfig config;
  config.grouping_columns = {"region", "kind", "bucket"};
  config.sample_fraction = 0.1;
  config.seed = 5;
  std::vector<GroupByQuery> queries;
  for (const std::vector<size_t>& columns : std::vector<std::vector<size_t>>{
           {0}, {1}, {2}, {0, 1}, {2, 1}, {0, 2}, {0, 1, 2}}) {
    GroupByQuery q;
    q.group_columns = columns;
    q.aggregates = {{AggregateKind::kSum, 3},
                    {AggregateKind::kCount, 0},
                    {AggregateKind::kAvg, 3},
                    {AggregateKind::kMin, 3},
                    {AggregateKind::kMax, 3}};
    queries.push_back(q);
    q.predicate = MakeRangePredicate(3, 0.0, 100.0);
    queries.push_back(q);
  }

  AquaEngine serial_engine;
  ASSERT_TRUE(serial_engine.RegisterTable("t", t, config).ok());
  auto serial_snapshot = serial_engine.GetSnapshot("t");
  ASSERT_TRUE(serial_snapshot.ok());
  std::vector<QueryResult> serial;
  for (const GroupByQuery& q : queries) {
    auto answer = ExecuteExactOnSnapshot(**serial_snapshot, q);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    serial.push_back(std::move(answer).value());
  }

  AquaEngine engine;
  ASSERT_TRUE(engine.RegisterTable("t", t, config).ok());
  auto snapshot = engine.GetSnapshot("t");
  ASSERT_TRUE(snapshot.ok());
  ASSERT_NE((*snapshot)->exact_rollups, nullptr);
  EXPECT_EQ((*snapshot)->exact_rollups->num_entries(), 0u);
  constexpr size_t kThreads = 8;
  std::vector<std::vector<QueryResult>> answers(kThreads);
  std::atomic<size_t> ready{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (size_t k = 0; k < queries.size(); ++k) {
        auto answer = ExecuteExactOnSnapshot(
            **snapshot, queries[(2 * i + k) % queries.size()]);
        if (!answer.ok()) {
          errors.fetch_add(1);
          return;
        }
        answers[i].push_back(std::move(answer).value());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(errors.load(), 0);
  for (size_t i = 0; i < kThreads; ++i) {
    ASSERT_EQ(answers[i].size(), queries.size());
    for (size_t k = 0; k < queries.size(); ++k) {
      const Status same = testing::CheckExactIdentical(
          answers[i][k], serial[(2 * i + k) % queries.size()],
          "thread " + std::to_string(i) + ", query " + std::to_string(k));
      EXPECT_TRUE(same.ok()) << same.ToString();
    }
  }
  EXPECT_EQ((*snapshot)->exact_rollups->num_entries(), 7u);
  EXPECT_LE((*snapshot)->exact_rollups->state_bytes(),
            (*snapshot)->exact_rollups->state_byte_limit());
}

TEST_F(AquaEngineTest, PublishStartsAnEmptyExactRollupMemo) {
  // An incremental publish gives the new snapshot its own, empty memo; a
  // reader still pinning the old snapshot keeps answering from the old
  // one, over the old table.
  SynopsisConfig config = SalesConfig();
  config.incremental = true;
  AquaEngine engine;
  ASSERT_TRUE(engine.RegisterTable("live", SalesTable(), config).ok());
  const std::string sql =
      "SELECT region, SUM(amount), COUNT(*) FROM live GROUP BY region";
  auto old_snapshot = engine.GetSnapshot("live");
  ASSERT_TRUE(old_snapshot.ok());
  auto before = engine.QueryExact(sql);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const ExactRollups& old_memo = *(*old_snapshot)->exact_rollups;
  EXPECT_EQ(old_memo.num_entries(), 1u);
  EXPECT_GT(old_memo.state_bytes(), 0u);

  ASSERT_TRUE(
      engine.Insert("live", {Value("east"), Value(int64_t{0}), Value(5.0)})
          .ok());
  ASSERT_TRUE(engine.Refresh("live").ok());
  auto new_snapshot = engine.GetSnapshot("live");
  ASSERT_TRUE(new_snapshot.ok());
  ASSERT_NE((*new_snapshot)->exact_rollups, nullptr);
  EXPECT_NE((*new_snapshot)->exact_rollups, (*old_snapshot)->exact_rollups);
  EXPECT_EQ((*new_snapshot)->exact_rollups->num_entries(), 0u);
  EXPECT_EQ((*new_snapshot)->exact_rollups->state_bytes(), 0u);

  auto after = engine.QueryExact(sql);
  ASSERT_TRUE(after.ok());
  const GroupResult* east = after->Find(GroupKey{Value("east")});
  const GroupResult* east_before = before->Find(GroupKey{Value("east")});
  ASSERT_NE(east, nullptr);
  ASSERT_NE(east_before, nullptr);
  EXPECT_EQ(east->aggregates[1], east_before->aggregates[1] + 1.0);
  EXPECT_EQ((*new_snapshot)->exact_rollups->num_entries(), 1u);

  // The pinned old snapshot answers as before, from its own memo.
  GroupByQuery by_region;
  by_region.group_columns = {0};
  by_region.aggregates = {{AggregateKind::kSum, 2}, {AggregateKind::kCount, 0}};
  const size_t old_bytes = old_memo.state_bytes();
  auto again = ExecuteExactOnSnapshot(**old_snapshot, by_region);
  ASSERT_TRUE(again.ok());
  const Status same = testing::CheckExactIdentical(*before, *again, "pinned");
  EXPECT_TRUE(same.ok()) << same.ToString();
  EXPECT_EQ(old_memo.num_entries(), 1u);
  EXPECT_EQ(old_memo.state_bytes(), old_bytes);
  EXPECT_EQ(old_memo.table()->num_rows(), 1000u);
}

TEST_F(AquaEngineTest, CheckpointRecordsStreamPositionOfTwoPassRelation) {
  const std::string path = ::testing::TempDir() + "/aqua_test_two_pass.snap";
  ASSERT_TRUE(engine_.Checkpoint("sales", path).ok());
  auto recovered = resilience::RecoverSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->image.tuples_seen, 1000u);
  EXPECT_EQ(recovered->image.target_size, 200u);
}

TEST_F(AquaEngineTest, RestoredRelationRejectsInserts) {
  // The maintainer RNG is not in the checkpoint, so the stream cannot
  // resume: a restored relation serves queries but refuses inserts.
  SynopsisConfig config = SalesConfig();
  config.incremental = true;
  AquaEngine live;
  ASSERT_TRUE(live.RegisterTable("live", SalesTable(), config).ok());
  const std::string path = ::testing::TempDir() + "/aqua_test_restore.snap";
  ASSERT_TRUE(live.Checkpoint("live", path).ok());
  AquaEngine restored;
  Status st = restored.RestoreTable("live", path, config);
  std::remove(path.c_str());
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto synopsis = restored.GetSynopsis("live");
  ASSERT_TRUE(synopsis.ok());
  EXPECT_FALSE((*synopsis)->config().incremental);
  EXPECT_TRUE(
      restored.Query("SELECT region, SUM(amount) FROM live GROUP BY region")
          .ok());
  const std::vector<Value> row = {Value("east"), Value(int64_t{0}),
                                  Value(1.0)};
  EXPECT_EQ(restored.Insert("live", row).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(restored.InsertBatch("live", {row}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(AquaEngineTest, DropTable) {
  EXPECT_TRUE(engine_.DropTable("sales").ok());
  EXPECT_FALSE(engine_.HasTable("sales"));
  EXPECT_FALSE(engine_.DropTable("sales").ok());
  EXPECT_FALSE(engine_.Refresh("sales").ok());
  EXPECT_FALSE(engine_.Insert("sales", {}).ok());
  EXPECT_FALSE(engine_.GetSynopsis("sales").ok());
}

TEST_F(AquaEngineTest, MultipleTables) {
  Table other{Schema({Field{"g", DataType::kInt64},
                      Field{"v", DataType::kDouble}})};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        other
            .AppendRow({Value(static_cast<int64_t>(i % 4)),
                        Value(static_cast<double>(i))})
            .ok());
  }
  SynopsisConfig config;
  config.grouping_columns = {"g"};
  config.sample_fraction = 0.5;
  ASSERT_TRUE(engine_.RegisterTable("other", std::move(other), config).ok());
  EXPECT_EQ(engine_.TableNames().size(), 2u);
  // Routing picks the right relation per query.
  EXPECT_TRUE(engine_.Query("SELECT SUM(v) FROM other").ok());
  EXPECT_TRUE(engine_.Query("SELECT SUM(amount) FROM sales").ok());
  EXPECT_FALSE(engine_.Query("SELECT SUM(v) FROM sales").ok());
}

}  // namespace
}  // namespace congress
