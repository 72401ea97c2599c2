#include "engine/expression.h"

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "engine/executor.h"
#include "sampling/builder.h"
#include "sql/emitter.h"
#include "sql/parser.h"

namespace congress {
namespace {

/// TPC-D Q1 flavour: price, discount, tax columns.
Table MakeTable() {
  Table t{Schema({Field{"flag", DataType::kInt64},
                  Field{"price", DataType::kDouble},
                  Field{"discount", DataType::kDouble},
                  Field{"tax", DataType::kDouble}})};
  auto add = [&t](int64_t flag, double price, double discount, double tax) {
    ASSERT_TRUE(t.AppendRow({Value(flag), Value(price), Value(discount),
                             Value(tax)})
                    .ok());
  };
  add(0, 100.0, 0.1, 0.05);
  add(0, 200.0, 0.0, 0.10);
  add(1, 50.0, 0.2, 0.00);
  add(1, 150.0, 0.1, 0.05);
  return t;
}

TEST(ExpressionTest, EvalBasics) {
  Table t = MakeTable();
  auto col = MakeColumnExpr(1);
  EXPECT_DOUBLE_EQ(col->Eval(t, 0), 100.0);
  auto lit = MakeLiteralExpr(2.5);
  EXPECT_DOUBLE_EQ(lit->Eval(t, 3), 2.5);
  auto sum = MakeBinaryExpr(ArithOp::kAdd, MakeColumnExpr(1),
                            MakeLiteralExpr(1.0));
  EXPECT_DOUBLE_EQ(sum->Eval(t, 2), 51.0);
  auto neg = MakeNegateExpr(MakeColumnExpr(2));
  EXPECT_DOUBLE_EQ(neg->Eval(t, 0), -0.1);
}

TEST(ExpressionTest, Q1RevenueExpression) {
  // price * (1 - discount) * (1 + tax) — the Section 8 expression.
  Table t = MakeTable();
  auto revenue = MakeBinaryExpr(
      ArithOp::kMul,
      MakeBinaryExpr(ArithOp::kMul, MakeColumnExpr(1),
                     MakeBinaryExpr(ArithOp::kSub, MakeLiteralExpr(1.0),
                                    MakeColumnExpr(2))),
      MakeBinaryExpr(ArithOp::kAdd, MakeLiteralExpr(1.0),
                     MakeColumnExpr(3)));
  EXPECT_NEAR(revenue->Eval(t, 0), 100.0 * 0.9 * 1.05, 1e-9);
  EXPECT_NEAR(revenue->Eval(t, 2), 50.0 * 0.8 * 1.0, 1e-9);
}

TEST(ExpressionTest, DivisionByZeroYieldsZero) {
  Table t = MakeTable();
  auto div = MakeBinaryExpr(ArithOp::kDiv, MakeColumnExpr(1),
                            MakeColumnExpr(3));
  EXPECT_DOUBLE_EQ(div->Eval(t, 2), 0.0);  // tax = 0 there.
  EXPECT_NEAR(div->Eval(t, 0), 100.0 / 0.05, 1e-9);
}

TEST(ExpressionTest, ValidateCatchesBadColumns) {
  Table t = MakeTable();
  EXPECT_TRUE(MakeColumnExpr(1)->Validate(t.schema()).ok());
  EXPECT_FALSE(MakeColumnExpr(9)->Validate(t.schema()).ok());
  Schema with_string({Field{"s", DataType::kString}});
  EXPECT_FALSE(MakeColumnExpr(0)->Validate(with_string).ok());
  auto nested = MakeBinaryExpr(ArithOp::kAdd, MakeLiteralExpr(1.0),
                               MakeColumnExpr(9));
  EXPECT_FALSE(nested->Validate(t.schema()).ok());
}

TEST(ExpressionTest, ToStringRendersInfix) {
  Schema schema = MakeTable().schema();
  auto expr = MakeBinaryExpr(ArithOp::kMul, MakeColumnExpr(1),
                             MakeBinaryExpr(ArithOp::kSub,
                                            MakeLiteralExpr(1.0),
                                            MakeColumnExpr(2)));
  EXPECT_EQ(expr->ToString(&schema), "(price*(1-discount))");
  EXPECT_EQ(expr->ToString(nullptr), "(col1*(1-col2))");
}

TEST(ExpressionAggregateTest, ExactExecutorSupportsExpressions) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0};
  AggregateSpec spec{
      AggregateKind::kSum,
      MakeBinaryExpr(ArithOp::kMul, MakeColumnExpr(1),
                     MakeBinaryExpr(ArithOp::kSub, MakeLiteralExpr(1.0),
                                    MakeColumnExpr(2)))};
  q.aggregates = {spec};
  auto result = ExecuteExact(t, q);
  ASSERT_TRUE(result.ok());
  const GroupResult* flag0 = result->Find({Value(int64_t{0})});
  ASSERT_NE(flag0, nullptr);
  EXPECT_NEAR(flag0->aggregates[0], 100.0 * 0.9 + 200.0, 1e-9);
}

TEST(ExpressionAggregateTest, EstimatorUnbiasedOnExpression) {
  // Larger table; full-rate sample reproduces the exact expression sum.
  Table t{Schema({Field{"g", DataType::kInt64},
                  Field{"a", DataType::kDouble},
                  Field{"b", DataType::kDouble}})};
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(i % 4)),
                             Value(static_cast<double>(i % 13)),
                             Value(static_cast<double>(i % 7))})
                    .ok());
  }
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{
      AggregateKind::kSum,
      MakeBinaryExpr(ArithOp::kMul, MakeColumnExpr(1), MakeColumnExpr(2))}};
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(exact.ok());
  Random rng(1);
  auto sample = BuildSample(t, {0}, AllocationStrategy::kSenate,
                            static_cast<double>(t.num_rows()), &rng);
  ASSERT_TRUE(sample.ok());
  auto approx = EstimateGroupBy(*sample, SampleMoments::Compute(*sample), q);
  ASSERT_TRUE(approx.ok());
  for (const GroupResult& row : exact->rows()) {
    const auto est = approx->Find(row.key);
    ASSERT_TRUE(est.has_value());
    EXPECT_NEAR(est->estimates[0], row.aggregates[0], 1e-9);
  }
}

TEST(ExpressionAggregateTest, SqlParsesTpcdQ1Revenue) {
  Table t = MakeTable();
  auto query = sql::ParseQuery(
      "SELECT flag, SUM(price * (1 - discount) * (1 + tax)), "
      "AVG(price / (1 + tax)) FROM lineitem GROUP BY flag",
      t.schema());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->aggregates.size(), 2u);
  ASSERT_NE(query->aggregates[0].expression, nullptr);
  auto result = ExecuteExact(t, *query);
  ASSERT_TRUE(result.ok());
  const GroupResult* flag1 = result->Find({Value(int64_t{1})});
  ASSERT_NE(flag1, nullptr);
  EXPECT_NEAR(flag1->aggregates[0],
              50.0 * 0.8 * 1.0 + 150.0 * 0.9 * 1.05, 1e-9);
}

TEST(ExpressionAggregateTest, SqlUnaryMinusAndPrecedence) {
  Table t = MakeTable();
  auto query = sql::ParseQuery(
      "SELECT SUM(price + discount * 10) FROM t", t.schema());
  ASSERT_TRUE(query.ok());
  auto result = ExecuteExact(t, *query);
  ASSERT_TRUE(result.ok());
  // Precedence: price + (discount*10), summed over 4 rows.
  double expected = (100 + 1.0) + (200 + 0.0) + (50 + 2.0) + (150 + 1.0);
  EXPECT_NEAR(result->rows()[0].aggregates[0], expected, 1e-9);

  auto neg = sql::ParseQuery("SELECT SUM(-price) FROM t", t.schema());
  ASSERT_TRUE(neg.ok());
  auto neg_result = ExecuteExact(t, *neg);
  ASSERT_TRUE(neg_result.ok());
  EXPECT_NEAR(neg_result->rows()[0].aggregates[0], -500.0, 1e-9);
}

TEST(ExpressionAggregateTest, SqlValidation) {
  Table t = MakeTable();
  EXPECT_FALSE(
      sql::ParseQuery("SELECT SUM(nope * 2) FROM t", t.schema()).ok());
  EXPECT_FALSE(
      sql::ParseQuery("SELECT SUM(price * ) FROM t", t.schema()).ok());
  EXPECT_FALSE(
      sql::ParseQuery("SELECT SUM((price) FROM t", t.schema()).ok());
}

TEST(ExpressionAggregateTest, RewriterAndEmitterSupportExpressions) {
  Table t{Schema({Field{"g", DataType::kInt64},
                  Field{"a", DataType::kDouble},
                  Field{"b", DataType::kDouble}})};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(i % 2)),
                             Value(static_cast<double>(i % 5 + 1)),
                             Value(static_cast<double>(i % 3 + 1))})
                    .ok());
  }
  auto query = sql::ParseQuery("SELECT g, SUM(a * b) FROM t GROUP BY g",
                               t.schema());
  ASSERT_TRUE(query.ok());
  Random rng(2);
  auto sample = BuildSample(t, {0}, AllocationStrategy::kCongress,
                            static_cast<double>(t.num_rows()), &rng);
  ASSERT_TRUE(sample.ok());
  Rewriter rewriter(*sample);
  auto exact = ExecuteExact(t, *query);
  ASSERT_TRUE(exact.ok());
  for (auto strategy :
       {RewriteStrategy::kIntegrated, RewriteStrategy::kNestedIntegrated,
        RewriteStrategy::kNormalized, RewriteStrategy::kKeyNormalized}) {
    auto result = rewriter.Answer(*query, strategy);
    ASSERT_TRUE(result.ok()) << RewriteStrategyToString(strategy);
    for (const GroupResult& row : exact->rows()) {
      const GroupResult* other = result->Find(row.key);
      ASSERT_NE(other, nullptr);
      EXPECT_NEAR(other->aggregates[0], row.aggregates[0],
                  1e-6 * std::abs(row.aggregates[0]));
    }
  }
  std::string emitted =
      sql::EmitRewritten(*query, t.schema(), RewriteStrategy::kIntegrated);
  EXPECT_NE(emitted.find("sum((a*b)*sf)"), std::string::npos) << emitted;
}

}  // namespace
}  // namespace congress
