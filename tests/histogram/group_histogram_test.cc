#include "histogram/group_histogram.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "engine/executor.h"
#include "tpcd/lineitem.h"

namespace congress {
namespace {

Table SmallTable() {
  Table t{Schema({Field{"g", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  auto fill = [&t](int64_t g, int count, double value) {
    for (int i = 0; i < count; ++i) {
      EXPECT_TRUE(t.AppendRow({Value(g), Value(value)}).ok());
    }
  };
  fill(0, 100, 1.0);
  fill(1, 100, 2.0);
  fill(2, 100, 3.0);
  fill(3, 100, 4.0);
  return t;
}

GroupByQuery SumQuery(std::vector<size_t> groups = {0}) {
  GroupByQuery q;
  q.group_columns = std::move(groups);
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 1},
                  AggregateSpec{AggregateKind::kCount, 0},
                  AggregateSpec{AggregateKind::kAvg, 1}};
  return q;
}

TEST(GroupHistogramTest, OneBucketPerGroupIsExact) {
  Table t = SmallTable();
  GroupHistogram::Options options;
  options.num_buckets = 4;
  options.measure_columns = {1};
  auto histogram = GroupHistogram::Build(t, {0}, options);
  ASSERT_TRUE(histogram.ok());
  EXPECT_EQ(histogram->num_buckets(), 4u);
  auto answer = histogram->Answer(SumQuery());
  auto exact = ExecuteExact(t, SumQuery());
  ASSERT_TRUE(answer.ok() && exact.ok());
  for (const ApproximateGroupRow& row : exact->rows()) {
    const auto est = answer->Find(row.key);
    ASSERT_TRUE(est.has_value());
    for (size_t a = 0; a < row.estimates.size(); ++a) {
      EXPECT_NEAR(est->estimates[a], row.estimates[a], 1e-9);
    }
  }
}

TEST(GroupHistogramTest, UniformGroupsStayExactUnderMerging) {
  // With equal group sizes the uniform-spread assumption holds, so even
  // 2 buckets over 4 groups answer COUNT exactly.
  Table t = SmallTable();
  GroupHistogram::Options options;
  options.num_buckets = 2;
  options.measure_columns = {1};
  auto histogram = GroupHistogram::Build(t, {0}, options);
  ASSERT_TRUE(histogram.ok());
  auto answer = histogram->Answer(SumQuery());
  ASSERT_TRUE(answer.ok());
  for (const ApproximateGroupRow& row : answer->rows()) {
    EXPECT_NEAR(row.estimates[1], 100.0, 1e-9);  // COUNT per group.
  }
}

TEST(GroupHistogramTest, SkewedGroupsErrUnderMerging) {
  // Footnote 4's point: merge a big and a small group into one bucket
  // and the small group's estimate is badly wrong.
  Table t{Schema({Field{"g", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  for (int i = 0; i < 900; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(int64_t{0}), Value(1.0)}).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(1.0)}).ok());
  }
  GroupHistogram::Options options;
  options.num_buckets = 1;
  options.measure_columns = {1};
  auto histogram = GroupHistogram::Build(t, {0}, options);
  ASSERT_TRUE(histogram.ok());
  auto answer = histogram->Answer(SumQuery());
  ASSERT_TRUE(answer.ok());
  const auto small = answer->Find({Value(int64_t{1})});
  ASSERT_TRUE(small.has_value());
  // Uniform spread puts 455 tuples in a 10-tuple group: ~4450% error.
  EXPECT_GT(small->estimates[1], 400.0);
}

TEST(GroupHistogramTest, RollUpGrouping) {
  Table t{Schema({Field{"a", DataType::kInt64},
                  Field{"b", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(a)),
                                 Value(static_cast<int64_t>(b)),
                                 Value(1.0)})
                        .ok());
      }
    }
  }
  GroupHistogram::Options options;
  options.num_buckets = 4;
  options.measure_columns = {2};
  auto histogram = GroupHistogram::Build(t, {0, 1}, options);
  ASSERT_TRUE(histogram.ok());
  GroupByQuery q = SumQuery({0});
  q.aggregates[0].column = 2;
  q.aggregates[2].column = 2;
  auto answer = histogram->Answer(q);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->num_groups(), 2u);
  for (const ApproximateGroupRow& row : answer->rows()) {
    EXPECT_NEAR(row.estimates[1], 100.0, 1e-9);
  }
}

TEST(GroupHistogramTest, RejectsPredicatesAndUnknownColumns) {
  Table t = SmallTable();
  GroupHistogram::Options options;
  options.num_buckets = 2;
  options.measure_columns = {1};
  auto histogram = GroupHistogram::Build(t, {0}, options);
  ASSERT_TRUE(histogram.ok());
  GroupByQuery q = SumQuery();
  q.predicate = MakeTruePredicate();
  EXPECT_FALSE(histogram->Answer(q).ok());
  q = SumQuery({1});  // Grouping by the measure column.
  EXPECT_FALSE(histogram->Answer(q).ok());
  q = SumQuery();
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 0}};  // Not a measure.
  EXPECT_FALSE(histogram->Answer(q).ok());
  q = SumQuery();
  q.aggregates = {AggregateSpec{AggregateKind::kMin, 1}};
  EXPECT_FALSE(histogram->Answer(q).ok());
}

TEST(GroupHistogramTest, BuildValidation) {
  Table t = SmallTable();
  GroupHistogram::Options options;
  options.num_buckets = 0;
  EXPECT_FALSE(GroupHistogram::Build(t, {0}, options).ok());
  options.num_buckets = 2;
  options.measure_columns = {9};
  EXPECT_FALSE(GroupHistogram::Build(t, {0}, options).ok());
  options.measure_columns = {1};
  EXPECT_FALSE(GroupHistogram::Build(t, {}, options).ok());
  Table empty = t.CloneEmpty();
  EXPECT_FALSE(GroupHistogram::Build(empty, {0}, options).ok());
}

TEST(GroupHistogramTest, StorageCellsAccounting) {
  Table t = SmallTable();
  GroupHistogram::Options options;
  options.num_buckets = 3;
  options.measure_columns = {1};
  auto histogram = GroupHistogram::Build(t, {0}, options);
  ASSERT_TRUE(histogram.ok());
  EXPECT_EQ(histogram->StorageCells(), histogram->num_buckets() * 4);
}

TEST(GroupHistogramTest, HavingApplies) {
  Table t = SmallTable();
  GroupHistogram::Options options;
  options.num_buckets = 4;
  options.measure_columns = {1};
  auto histogram = GroupHistogram::Build(t, {0}, options);
  ASSERT_TRUE(histogram.ok());
  GroupByQuery q = SumQuery();
  q.having = {HavingCondition{0, CompareOp::kGt, 250.0}};  // SUM > 250.
  auto answer = histogram->Answer(q);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->num_groups(), 2u);  // Sums 300 and 400.
}

}  // namespace
}  // namespace congress
