#include "online/online_agg.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "engine/executor.h"
#include "tpcd/lineitem.h"

namespace congress {
namespace {

Table SkewedTable() {
  Table t{Schema({Field{"g", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  int serial = 0;
  auto fill = [&](int64_t g, int n) {
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(
          t.AppendRow({Value(g), Value(static_cast<double>(serial++ % 7 + 1))})
              .ok());
    }
  };
  fill(0, 2000);
  fill(1, 500);
  fill(2, 100);
  fill(3, 20);
  return t;
}

GroupByQuery SumQuery() {
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 1},
                  AggregateSpec{AggregateKind::kCount, 0}};
  return q;
}

TEST(OnlineAggTest, FullScanIsExact) {
  Table t = SkewedTable();
  for (bool striding : {false, true}) {
    OnlineAggOptions options;
    options.index_striding = striding;
    auto agg = OnlineAggregator::Start(&t, SumQuery(), options);
    ASSERT_TRUE(agg.ok());
    while (!agg->Done()) agg->Step(512);
    EXPECT_DOUBLE_EQ(agg->Progress(), 1.0);
    auto estimate = agg->CurrentEstimate();
    auto exact = ExecuteExact(t, SumQuery());
    ASSERT_TRUE(estimate.ok() && exact.ok());
    ASSERT_EQ(estimate->num_groups(), exact->num_groups());
    for (const GroupResult& row : exact->rows()) {
      const auto est = estimate->Find(row.key);
      ASSERT_TRUE(est.has_value());
      EXPECT_NEAR(est->estimates[0], row.aggregates[0], 1e-9);
      EXPECT_NEAR(est->estimates[1], row.aggregates[1], 1e-9);
      EXPECT_NEAR(est->std_errors[0], 0.0, 1e-9);  // FPC at full scan.
    }
  }
}

TEST(OnlineAggTest, StepConsumesExactlyBatch) {
  Table t = SkewedTable();
  auto agg = OnlineAggregator::Start(&t, SumQuery(), OnlineAggOptions{});
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->Step(100), 100u);
  EXPECT_EQ(agg->tuples_processed(), 100u);
  size_t total = 100;
  while (!agg->Done()) total += agg->Step(777);
  EXPECT_EQ(total, t.num_rows());
  EXPECT_EQ(agg->Step(10), 0u);  // Exhausted.
}

TEST(OnlineAggTest, StridingCoversSmallGroupsEarly) {
  Table t = SkewedTable();
  OnlineAggOptions striding;
  striding.index_striding = true;
  auto strided = OnlineAggregator::Start(&t, SumQuery(), striding);
  ASSERT_TRUE(strided.ok());
  // After 40 strided tuples (10 rounds x 4 groups), every group has 10.
  strided->Step(40);
  auto estimate = strided->CurrentEstimate();
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(estimate->num_groups(), 4u);
  for (const auto& row : estimate->rows()) {
    EXPECT_EQ(row.support, 10u);
  }
}

TEST(OnlineAggTest, UniformScanUnderRepresentsSmallGroups) {
  Table t = SkewedTable();
  auto uniform = OnlineAggregator::Start(&t, SumQuery(), OnlineAggOptions{});
  ASSERT_TRUE(uniform.ok());
  uniform->Step(40);  // Same budget as the striding test.
  auto estimate = uniform->CurrentEstimate();
  ASSERT_TRUE(estimate.ok());
  // The 20-tuple group has ~0.3 expected tuples at this point; usually
  // absent or barely present while the striding scan has 10.
  const auto small = estimate->Find({Value(int64_t{3})});
  if (small.has_value()) {
    EXPECT_LT(small->support, 5u);
  }
}

TEST(OnlineAggTest, ErrorShrinksWithProgress) {
  Table t = SkewedTable();
  GroupByQuery q = SumQuery();
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(exact.ok());
  OnlineAggOptions options;
  options.index_striding = true;
  auto agg = OnlineAggregator::Start(&t, q, options);
  ASSERT_TRUE(agg.ok());
  double prev_error = 1e18;
  for (double target : {0.05, 0.25, 0.75}) {
    while (agg->Progress() < target && !agg->Done()) agg->Step(64);
    auto estimate = agg->CurrentEstimate();
    ASSERT_TRUE(estimate.ok());
    double error = CompareAnswers(*exact, *estimate, 0).l1;
    EXPECT_LE(error, prev_error + 5.0);  // Allow small non-monotone noise.
    prev_error = error;
  }
  EXPECT_LT(prev_error, 10.0);
}

TEST(OnlineAggTest, PredicateSupported) {
  Table t = SkewedTable();
  GroupByQuery q = SumQuery();
  q.predicate = MakeRangePredicate(1, 3.0, 5.0);
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(exact.ok());
  auto agg = OnlineAggregator::Start(&t, q, OnlineAggOptions{});
  ASSERT_TRUE(agg.ok());
  while (!agg->Done()) agg->Step(1024);
  auto estimate = agg->CurrentEstimate();
  ASSERT_TRUE(estimate.ok());
  for (const GroupResult& row : exact->rows()) {
    const auto est = estimate->Find(row.key);
    ASSERT_TRUE(est.has_value());
    EXPECT_NEAR(est->estimates[0], row.aggregates[0], 1e-9);
  }
}

TEST(OnlineAggTest, BoundsCoverTruthDuringScan) {
  Table t = SkewedTable();
  GroupByQuery q = SumQuery();
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(exact.ok());
  int covered = 0;
  int total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    OnlineAggOptions options;
    options.index_striding = true;
    options.seed = 100 + trial;
    auto agg = OnlineAggregator::Start(&t, q, options);
    ASSERT_TRUE(agg.ok());
    agg->Step(t.num_rows() / 10);
    auto estimate = agg->CurrentEstimate();
    ASSERT_TRUE(estimate.ok());
    for (const GroupResult& row : exact->rows()) {
      const auto est = estimate->Find(row.key);
      if (!est) continue;
      ++total;
      if (std::abs(est->estimates[0] - row.aggregates[0]) <= est->bounds[0]) {
        ++covered;
      }
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(covered) / total, 0.85);
}

TEST(OnlineAggTest, Validation) {
  Table t = SkewedTable();
  GroupByQuery q = SumQuery();
  EXPECT_FALSE(OnlineAggregator::Start(nullptr, q, OnlineAggOptions{}).ok());
  GroupByQuery bad = q;
  bad.aggregates.clear();
  EXPECT_FALSE(OnlineAggregator::Start(&t, bad, OnlineAggOptions{}).ok());
  bad = q;
  bad.aggregates = {AggregateSpec{AggregateKind::kMax, 1}};
  EXPECT_FALSE(OnlineAggregator::Start(&t, bad, OnlineAggOptions{}).ok());
  bad = q;
  bad.group_columns = {9};
  EXPECT_FALSE(OnlineAggregator::Start(&t, bad, OnlineAggOptions{}).ok());
  OnlineAggOptions bad_options;
  bad_options.confidence = 1.5;
  EXPECT_FALSE(OnlineAggregator::Start(&t, q, bad_options).ok());
}

}  // namespace
}  // namespace congress
