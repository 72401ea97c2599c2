// End-to-end coverage for HAVING — the paper's census motivation is
// literally "identify all states with per capita incomes above some
// value", i.e. AVG(sal) GROUP BY st HAVING AVG(sal) > v.

#include <gtest/gtest.h>

#include "core/aqua.h"
#include "core/estimator.h"
#include "engine/executor.h"
#include "sampling/builder.h"
#include "sql/emitter.h"
#include "sql/parser.h"
#include "tpcd/census.h"

namespace congress {
namespace {

Table SmallTable() {
  Table t{Schema({Field{"g", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  auto fill = [&t](int64_t g, std::initializer_list<double> values) {
    for (double v : values) {
      EXPECT_TRUE(t.AppendRow({Value(g), Value(v)}).ok());
    }
  };
  fill(1, {10, 20, 30});       // SUM 60, AVG 20, COUNT 3.
  fill(2, {5, 5});             // SUM 10, AVG 5, COUNT 2.
  fill(3, {100});              // SUM 100, AVG 100, COUNT 1.
  return t;
}

GroupByQuery BaseQuery() {
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 1},
                  AggregateSpec{AggregateKind::kAvg, 1},
                  AggregateSpec{AggregateKind::kCount, 0}};
  return q;
}

TEST(HavingTest, ExecutorFiltersOnEachOperator) {
  Table t = SmallTable();
  struct Case {
    CompareOp op;
    double value;
    size_t expected_groups;
  };
  // HAVING SUM(v) <op> value.
  const Case cases[] = {
      {CompareOp::kGt, 50.0, 2u},   // 60 and 100.
      {CompareOp::kGe, 60.0, 2u},
      {CompareOp::kLt, 60.0, 1u},   // 10.
      {CompareOp::kLe, 60.0, 2u},
      {CompareOp::kEq, 100.0, 1u},
      {CompareOp::kNe, 100.0, 2u},
  };
  for (const Case& c : cases) {
    GroupByQuery q = BaseQuery();
    q.having = {HavingCondition{0, c.op, c.value}};
    auto result = ExecuteExact(t, q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->num_groups(), c.expected_groups)
        << CompareOpToString(c.op) << " " << c.value;
  }
}

TEST(HavingTest, ConjunctionAndMultipleAggregates) {
  Table t = SmallTable();
  GroupByQuery q = BaseQuery();
  // SUM > 20 AND COUNT >= 2: only group 1 (60, count 3).
  q.having = {HavingCondition{0, CompareOp::kGt, 20.0},
              HavingCondition{2, CompareOp::kGe, 2.0}};
  auto result = ExecuteExact(t, q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_groups(), 1u);
  EXPECT_EQ(result->rows()[0].key[0], Value(int64_t{1}));
}

TEST(HavingTest, ExecutorRejectsBadIndex) {
  Table t = SmallTable();
  GroupByQuery q = BaseQuery();
  q.having = {HavingCondition{9, CompareOp::kGt, 0.0}};
  EXPECT_FALSE(ExecuteExact(t, q).ok());
}

TEST(HavingTest, EstimatorAndRewriterApplyHaving) {
  Table t = SmallTable();
  Random rng(1);
  // Full-rate sample: estimates are exact, so HAVING behaves identically.
  auto sample = BuildSample(t, {0}, AllocationStrategy::kSenate,
                            static_cast<double>(t.num_rows()), &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = BaseQuery();
  q.having = {HavingCondition{1, CompareOp::kGt, 10.0}};  // AVG > 10.
  auto estimated = EstimateGroupBy(*sample, SampleMoments::Compute(*sample), q);
  ASSERT_TRUE(estimated.ok());
  EXPECT_EQ(estimated->num_groups(), 2u);  // AVG 20 and 100.
  EXPECT_FALSE(estimated->Find({Value(int64_t{2})}).has_value());

  Rewriter rewriter(*sample);
  for (auto strategy :
       {RewriteStrategy::kIntegrated, RewriteStrategy::kNestedIntegrated,
        RewriteStrategy::kNormalized, RewriteStrategy::kKeyNormalized}) {
    auto result = rewriter.Answer(q, strategy);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->num_groups(), 2u) << RewriteStrategyToString(strategy);
  }
}

TEST(HavingTest, SqlParsesBindsAndExecutes) {
  Table t = SmallTable();
  Schema schema = t.schema();
  auto query = sql::ParseQuery(
      "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g "
      "HAVING SUM(v) > 20 AND COUNT(*) >= 2",
      schema);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->having.size(), 2u);
  // aggregate_index counts aggregates only: SUM(v)=0, COUNT(*)=1.
  EXPECT_EQ(query->having[0].aggregate_index, 0u);
  EXPECT_EQ(query->having[0].op, CompareOp::kGt);
  EXPECT_EQ(query->having[1].aggregate_index, 1u);
  auto result = ExecuteExact(t, *query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_groups(), 1u);
}

TEST(HavingTest, SqlValidation) {
  Schema schema({Field{"g", DataType::kInt64},
                 Field{"v", DataType::kDouble}});
  // HAVING aggregate not in the select list.
  EXPECT_FALSE(sql::ParseQuery(
                   "SELECT g, SUM(v) FROM t GROUP BY g HAVING AVG(v) > 1",
                   schema)
                   .ok());
  // Unknown column in HAVING.
  EXPECT_FALSE(sql::ParseQuery(
                   "SELECT g, SUM(v) FROM t GROUP BY g HAVING SUM(x) > 1",
                   schema)
                   .ok());
  // Non-aggregate HAVING.
  EXPECT_FALSE(sql::ParseQuery(
                   "SELECT g, SUM(v) FROM t GROUP BY g HAVING g > 1", schema)
                   .ok());
  // Missing literal.
  EXPECT_FALSE(sql::ParseQuery(
                   "SELECT g, SUM(v) FROM t GROUP BY g HAVING SUM(v) >",
                   schema)
                   .ok());
}

TEST(HavingTest, EmitterRendersScaledHaving) {
  Schema schema({Field{"g", DataType::kInt64},
                 Field{"v", DataType::kDouble}});
  auto query = sql::ParseQuery(
      "SELECT g, SUM(v) FROM t GROUP BY g HAVING SUM(v) > 100", schema);
  ASSERT_TRUE(query.ok());
  std::string original = sql::EmitQuery(*query, schema, "t");
  EXPECT_NE(original.find("having sum(v) > 100"), std::string::npos);

  std::string integrated =
      sql::EmitRewritten(*query, schema, RewriteStrategy::kIntegrated);
  EXPECT_NE(integrated.find("having sum(v*sf) > 100"), std::string::npos);

  std::string nested = sql::EmitRewritten(
      *query, schema, RewriteStrategy::kNestedIntegrated);
  EXPECT_NE(nested.find("having sum(sq0*sf) > 100"), std::string::npos);
}

TEST(HavingTest, CensusStatesAboveThreshold) {
  // The paper's marketing-analyst query end to end through AquaEngine.
  tpcd::CensusConfig config;
  config.num_people = 100'000;
  config.num_states = 30;
  config.seed = 3;
  auto census = tpcd::GenerateCensus(config);
  ASSERT_TRUE(census.ok());

  AquaEngine engine;
  SynopsisConfig sconfig;
  sconfig.strategy = AllocationStrategy::kCongress;
  sconfig.sample_fraction = 0.05;
  sconfig.grouping_columns = {"st", "gen"};
  sconfig.seed = 4;
  ASSERT_TRUE(
      engine.RegisterTable("census", std::move(census).value(), sconfig)
          .ok());

  const char* sql =
      "SELECT st, AVG(sal) FROM census GROUP BY st HAVING AVG(sal) > 55000";
  auto exact = engine.QueryExact(sql);
  auto approx = engine.Query(sql);
  ASSERT_TRUE(exact.ok() && approx.ok());
  // The threshold splits the states; the approximate set should agree
  // with the exact set on all but possibly borderline states.
  EXPECT_GT(exact->num_groups(), 0u);
  EXPECT_LT(exact->num_groups(), 30u);
  size_t agree = 0;
  for (const ApproximateGroupRow& row : exact->rows()) {
    if (approx->Find(row.key).has_value()) ++agree;
  }
  EXPECT_GE(agree + 2, exact->num_groups());  // At most 2 borderline misses.
  EXPECT_LE(approx->num_groups(), exact->num_groups() + 2);
}

}  // namespace
}  // namespace congress
