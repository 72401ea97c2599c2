// Full-stack SQL integration: text queries with expressions, WHERE and
// HAVING flow through AquaEngine -> parser -> synopsis -> estimator /
// rewrite plans, and the answers agree with the exact executor.

#include <cmath>

#include <gtest/gtest.h>

#include "core/aqua.h"
#include "core/metrics.h"
#include "tpcd/lineitem.h"

namespace congress {
namespace {

class SqlEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpcd::LineitemConfig config;
    config.num_tuples = 100'000;
    config.num_groups = 125;
    config.group_skew_z = 1.0;
    config.seed = 77;
    auto data = tpcd::GenerateLineitem(config);
    ASSERT_TRUE(data.ok());

    engine_ = new AquaEngine();
    SynopsisConfig sconfig;
    sconfig.strategy = AllocationStrategy::kCongress;
    sconfig.sample_fraction = 0.10;
    sconfig.grouping_columns = tpcd::LineitemGroupingColumnNames();
    sconfig.seed = 5;
    ASSERT_TRUE(
        engine_->RegisterTable("lineitem", std::move(data->table), sconfig)
            .ok());
  }

  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  /// Asserts the approximate answer is within `tolerance` relative L1 of
  /// exact and misses no groups.
  static void ExpectClose(const char* sql, double tolerance_percent) {
    auto exact = engine_->QueryExact(sql);
    auto approx = engine_->Query(sql);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString() << "\n" << sql;
    ASSERT_TRUE(approx.ok()) << approx.status().ToString() << "\n" << sql;
    auto report = CompareAnswers(*exact, *approx, 0);
    EXPECT_LT(report.l1, tolerance_percent) << sql;
  }

  static AquaEngine* engine_;
};

AquaEngine* SqlEndToEndTest::engine_ = nullptr;

TEST_F(SqlEndToEndTest, PlainAggregates) {
  ExpectClose("SELECT SUM(l_quantity) FROM lineitem", 5.0);
  ExpectClose("SELECT AVG(l_extendedprice) FROM lineitem", 5.0);
  ExpectClose("SELECT COUNT(*) FROM lineitem", 0.01);
}

TEST_F(SqlEndToEndTest, GroupByLevels) {
  ExpectClose(
      "SELECT l_returnflag, SUM(l_quantity) FROM lineitem "
      "GROUP BY l_returnflag",
      3.0);
  ExpectClose(
      "SELECT l_returnflag, l_linestatus, SUM(l_quantity) FROM lineitem "
      "GROUP BY l_returnflag, l_linestatus",
      5.0);
  ExpectClose(
      "SELECT l_returnflag, l_linestatus, l_shipdate, SUM(l_quantity) "
      "FROM lineitem GROUP BY l_returnflag, l_linestatus, l_shipdate",
      10.0);
}

TEST_F(SqlEndToEndTest, ExpressionAggregateRevenue) {
  // TPC-D Q1's revenue expression against the synthetic columns.
  ExpectClose(
      "SELECT l_returnflag, SUM(l_extendedprice * (1 - 0.05) * (1 + 0.08)) "
      "FROM lineitem GROUP BY l_returnflag",
      8.0);
  ExpectClose(
      "SELECT l_returnflag, SUM(l_quantity * l_extendedprice) FROM "
      "lineitem GROUP BY l_returnflag",
      10.0);
}

TEST_F(SqlEndToEndTest, WherePlusHaving) {
  const char* sql =
      "SELECT l_returnflag, l_linestatus, SUM(l_quantity) FROM lineitem "
      "WHERE l_id BETWEEN 1 AND 80000 "
      "GROUP BY l_returnflag, l_linestatus HAVING SUM(l_quantity) > 1000";
  auto exact = engine_->QueryExact(sql);
  auto approx = engine_->Query(sql);
  ASSERT_TRUE(exact.ok() && approx.ok());
  // HAVING thresholds agree on all but borderline groups.
  size_t agree = 0;
  for (const GroupResult& row : exact->rows()) {
    if (approx->Find(row.key).has_value()) ++agree;
  }
  EXPECT_GE(agree + 2, exact->num_groups());
}

TEST_F(SqlEndToEndTest, AllRewritePlansAgreeOnSqlQueries) {
  const char* queries[] = {
      "SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem "
      "GROUP BY l_returnflag",
      "SELECT l_returnflag, AVG(l_quantity * 2 + 1) FROM lineitem "
      "GROUP BY l_returnflag",
      "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_id <= 50000",
  };
  for (const char* sql : queries) {
    auto reference = engine_->QueryVia(sql, RewriteStrategy::kIntegrated);
    ASSERT_TRUE(reference.ok()) << sql;
    for (auto strategy :
         {RewriteStrategy::kNestedIntegrated, RewriteStrategy::kNormalized,
          RewriteStrategy::kKeyNormalized}) {
      auto result = engine_->QueryVia(sql, strategy);
      ASSERT_TRUE(result.ok()) << sql;
      ASSERT_EQ(result->num_groups(), reference->num_groups()) << sql;
      for (const GroupResult& row : reference->rows()) {
        const GroupResult* other = result->Find(row.key);
        ASSERT_NE(other, nullptr);
        for (size_t a = 0; a < row.aggregates.size(); ++a) {
          EXPECT_NEAR(other->aggregates[a], row.aggregates[a],
                      1e-6 * std::fabs(row.aggregates[a]) + 1e-9)
              << sql;
        }
      }
    }
  }
}

TEST_F(SqlEndToEndTest, ExplainMatchesAnswerPath) {
  const char* sql =
      "SELECT l_returnflag, SUM(l_quantity * 2) FROM lineitem "
      "GROUP BY l_returnflag";
  auto explained =
      engine_->ExplainRewrite(sql, RewriteStrategy::kIntegrated);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("sum((l_quantity*2)*sf)"), std::string::npos)
      << *explained;
  EXPECT_NE(explained->find("from bs_lineitem"), std::string::npos);
}

TEST_F(SqlEndToEndTest, ErrorBoundsScaleWithSelectivity) {
  // Aqua's House trend #1: tighter predicates -> fewer matching sample
  // tuples -> wider relative bounds.
  auto broad = engine_->Query(
      "SELECT SUM(l_quantity) FROM lineitem WHERE l_id <= 90000");
  auto narrow = engine_->Query(
      "SELECT SUM(l_quantity) FROM lineitem WHERE l_id <= 5000");
  ASSERT_TRUE(broad.ok() && narrow.ok());
  ASSERT_EQ(broad->num_groups(), 1u);
  ASSERT_EQ(narrow->num_groups(), 1u);
  double broad_rel =
      broad->rows()[0].bounds[0] / broad->rows()[0].estimates[0];
  double narrow_rel =
      narrow->rows()[0].bounds[0] / narrow->rows()[0].estimates[0];
  EXPECT_GT(narrow_rel, broad_rel);
}

TEST_F(SqlEndToEndTest, MalformedQueriesFailWithoutSideEffects) {
  EXPECT_FALSE(engine_->Query("SELECT").ok());
  EXPECT_FALSE(engine_->Query("SELECT SUM(l_quantity) FROM").ok());
  EXPECT_FALSE(
      engine_->Query("SELECT SUM(l_quantity) FROM other_table").ok());
  EXPECT_FALSE(engine_->Query(
                       "SELECT l_returnflag, SUM(l_quantity) FROM lineitem")
                   .ok());  // Ungrouped plain column.
  // The engine still answers correctly afterwards.
  EXPECT_TRUE(engine_->Query("SELECT COUNT(*) FROM lineitem").ok());
}

}  // namespace
}  // namespace congress
