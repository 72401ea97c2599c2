#include "engine/executor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace congress {
namespace {

/// 6-row relation: groups (A,1), (A,2), (B,1) with known sums.
Table MakeTable() {
  Table t{Schema({Field{"g1", DataType::kString},
                  Field{"g2", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  auto add = [&t](const char* g1, int64_t g2, double v) {
    ASSERT_TRUE(t.AppendRow({Value(g1), Value(g2), Value(v)}).ok());
  };
  add("A", 1, 1.0);
  add("A", 1, 2.0);
  add("A", 2, 3.0);
  add("B", 1, 4.0);
  add("B", 1, 5.0);
  add("A", 2, 6.0);
  return t;
}

TEST(ExecutorTest, GroupBySumTwoColumns) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0, 1};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  auto result = ExecuteExact(t, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_groups(), 3u);
  const auto a1 = result->Find({Value("A"), Value(int64_t{1})});
  ASSERT_TRUE(a1.has_value());
  EXPECT_DOUBLE_EQ(a1->estimates[0], 3.0);
  const auto a2 = result->Find({Value("A"), Value(int64_t{2})});
  ASSERT_TRUE(a2.has_value());
  EXPECT_DOUBLE_EQ(a2->estimates[0], 9.0);
  const auto b1 = result->Find({Value("B"), Value(int64_t{1})});
  ASSERT_TRUE(b1.has_value());
  EXPECT_DOUBLE_EQ(b1->estimates[0], 9.0);
}

TEST(ExecutorTest, GroupByOneColumnRollsUp) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2},
                  AggregateSpec{AggregateKind::kCount, 0}};
  auto result = ExecuteExact(t, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_groups(), 2u);
  const auto a = result->Find({Value("A")});
  ASSERT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ(a->estimates[0], 12.0);
  EXPECT_DOUBLE_EQ(a->estimates[1], 4.0);
}

TEST(ExecutorTest, NoGroupByYieldsSingleGroup) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2},
                  AggregateSpec{AggregateKind::kAvg, 2},
                  AggregateSpec{AggregateKind::kMin, 2},
                  AggregateSpec{AggregateKind::kMax, 2}};
  auto result = ExecuteExact(t, q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_groups(), 1u);
  const ApproximateGroupRow& g = result->rows()[0];
  EXPECT_TRUE(g.key.empty());
  EXPECT_DOUBLE_EQ(g.estimates[0], 21.0);
  EXPECT_DOUBLE_EQ(g.estimates[1], 3.5);
  EXPECT_DOUBLE_EQ(g.estimates[2], 1.0);
  EXPECT_DOUBLE_EQ(g.estimates[3], 6.0);
}

TEST(ExecutorTest, PredicateFilters) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  q.predicate = MakeRangePredicate(2, 2.0, 5.0);
  auto result = ExecuteExact(t, q);
  ASSERT_TRUE(result.ok());
  const auto a = result->Find({Value("A")});
  ASSERT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ(a->estimates[0], 5.0);  // 2 + 3.
  const auto b = result->Find({Value("B")});
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(b->estimates[0], 9.0);  // 4 + 5.
}

TEST(ExecutorTest, SelectivePredicateDropsGroups) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0, 1};
  q.aggregates = {AggregateSpec{AggregateKind::kCount, 0}};
  q.predicate = MakeEqualsPredicate(0, Value("B"));
  auto result = ExecuteExact(t, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_groups(), 1u);
}

TEST(ExecutorTest, EmptyResultWhenNothingMatches) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  q.predicate = MakeEqualsPredicate(0, Value("Z"));
  auto result = ExecuteExact(t, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_groups(), 0u);
}

TEST(ExecutorTest, RejectsNoAggregates) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0};
  auto result = ExecuteExact(t, q);
  EXPECT_FALSE(result.ok());
}

TEST(ExecutorTest, RejectsOutOfRangeColumns) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {9};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  EXPECT_FALSE(ExecuteExact(t, q).ok());

  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 9}};
  EXPECT_FALSE(ExecuteExact(t, q).ok());
}

TEST(ExecutorTest, RejectsAggregateOnString) {
  Table t = MakeTable();
  GroupByQuery q;
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 0}};
  auto result = ExecuteExact(t, q);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExecutorTest, ResultsSortedByKey) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0, 1};
  q.aggregates = {AggregateSpec{AggregateKind::kCount, 0}};
  auto result = ExecuteExact(t, q);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->rows().size(); ++i) {
    EXPECT_TRUE(KeyLess(result->row(i - 1).key, result->row(i).key));
  }
}

TEST(CountGroupsTest, CountsEveryGroup) {
  Table t = MakeTable();
  auto counts = CountGroups(t, {0, 1});
  EXPECT_EQ(counts.size(), 3u);
  GroupKey a1 = {Value("A"), Value(int64_t{1})};
  GroupKey a2 = {Value("A"), Value(int64_t{2})};
  GroupKey b1 = {Value("B"), Value(int64_t{1})};
  EXPECT_EQ(counts[a1], 2u);
  EXPECT_EQ(counts[a2], 2u);
  EXPECT_EQ(counts[b1], 2u);
}

TEST(CountGroupsTest, EmptyGroupColumnsSingleGroup) {
  Table t = MakeTable();
  auto counts = CountGroups(t, {});
  EXPECT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[GroupKey{}], 6u);
}

TEST(HashJoinTest, JoinsOnSingleKey) {
  Table left{Schema({Field{"k", DataType::kInt64},
                     Field{"v", DataType::kDouble}})};
  ASSERT_TRUE(left.AppendRow({Value(int64_t{1}), Value(10.0)}).ok());
  ASSERT_TRUE(left.AppendRow({Value(int64_t{2}), Value(20.0)}).ok());
  ASSERT_TRUE(left.AppendRow({Value(int64_t{3}), Value(30.0)}).ok());

  Table right{Schema({Field{"k", DataType::kInt64},
                      Field{"sf", DataType::kDouble}})};
  ASSERT_TRUE(right.AppendRow({Value(int64_t{1}), Value(100.0)}).ok());
  ASSERT_TRUE(right.AppendRow({Value(int64_t{3}), Value(300.0)}).ok());

  auto joined = HashJoin(left, {0}, right, {0});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 2u);  // k=2 has no match.
  EXPECT_EQ(joined->num_columns(), 3u);
  EXPECT_EQ(joined->schema().field(2).name, "sf");
}

TEST(HashJoinTest, MultiKeyJoin) {
  Table left{Schema({Field{"a", DataType::kString},
                     Field{"b", DataType::kInt64},
                     Field{"v", DataType::kDouble}})};
  ASSERT_TRUE(left.AppendRow({Value("x"), Value(int64_t{1}), Value(1.0)}).ok());
  ASSERT_TRUE(left.AppendRow({Value("x"), Value(int64_t{2}), Value(2.0)}).ok());

  Table right{Schema({Field{"a", DataType::kString},
                      Field{"b", DataType::kInt64},
                      Field{"w", DataType::kDouble}})};
  ASSERT_TRUE(
      right.AppendRow({Value("x"), Value(int64_t{2}), Value(9.0)}).ok());

  auto joined = HashJoin(left, {0, 1}, right, {0, 1});
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(joined->DoubleColumn(3)[0], 9.0);
}

TEST(HashJoinTest, OneToManyFanout) {
  Table left{Schema({Field{"k", DataType::kInt64}})};
  ASSERT_TRUE(left.AppendRow({Value(int64_t{1})}).ok());
  Table right{Schema({Field{"k", DataType::kInt64},
                      Field{"tag", DataType::kString}})};
  ASSERT_TRUE(right.AppendRow({Value(int64_t{1}), Value("a")}).ok());
  ASSERT_TRUE(right.AppendRow({Value(int64_t{1}), Value("b")}).ok());
  auto joined = HashJoin(left, {0}, right, {0});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 2u);
}

TEST(HashJoinTest, DuplicateNamesDisambiguated) {
  Table left{Schema({Field{"k", DataType::kInt64},
                     Field{"v", DataType::kDouble}})};
  ASSERT_TRUE(left.AppendRow({Value(int64_t{1}), Value(1.0)}).ok());
  Table right{Schema({Field{"k", DataType::kInt64},
                      Field{"v", DataType::kDouble}})};
  ASSERT_TRUE(right.AppendRow({Value(int64_t{1}), Value(2.0)}).ok());
  auto joined = HashJoin(left, {0}, right, {0});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->schema().field(2).name, "v_r");
}

TEST(HashJoinTest, ColumnarOutputPreservesRowOrder) {
  // The columnar emit must reproduce the serial probe order exactly:
  // left rows left-to-right, each left row's matches in ascending right
  // row order — across morsel boundaries and thread counts, with a
  // string payload exercising the string gather.
  Table left{Schema({Field{"k", DataType::kInt64},
                     Field{"v", DataType::kDouble}})};
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        left.AppendRow({Value(i % 10), Value(static_cast<double>(i))}).ok());
  }
  // Two right rows per key, deliberately interleaved so each build
  // group's row list is non-contiguous.
  Table right{Schema({Field{"k", DataType::kInt64},
                      Field{"tag", DataType::kString}})};
  for (int64_t pass = 0; pass < 2; ++pass) {
    for (int64_t k = 0; k < 8; ++k) {  // Keys 8 and 9 unmatched.
      ASSERT_TRUE(right
                      .AppendRow({Value(k),
                                  Value("p" + std::to_string(pass) + "k" +
                                        std::to_string(k))})
                      .ok());
    }
  }

  // Serial reference computed with the obvious nested loop.
  std::vector<std::pair<size_t, size_t>> expected;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    for (size_t r = 0; r < right.num_rows(); ++r) {
      if (left.Int64Column(0)[l] == right.Int64Column(0)[r]) {
        expected.emplace_back(l, r);
      }
    }
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    ExecutorOptions options;
    options.num_threads = threads;
    options.morsel_size = 128;  // Many morsels over 1000 rows.
    auto joined = HashJoin(left, {0}, right, {0}, options);
    ASSERT_TRUE(joined.ok());
    ASSERT_EQ(joined->num_rows(), expected.size()) << threads << " threads";
    for (size_t i = 0; i < expected.size(); ++i) {
      const auto [l, r] = expected[i];
      EXPECT_EQ(joined->Int64Column(0)[i], left.Int64Column(0)[l]);
      EXPECT_EQ(joined->DoubleColumn(1)[i], left.DoubleColumn(1)[l]);
      EXPECT_EQ(joined->StringColumn(2)[i], right.StringColumn(1)[r]);
    }
  }
}

TEST(HashJoinTest, ArityMismatchRejected) {
  Table left{Schema({Field{"k", DataType::kInt64}})};
  Table right{Schema({Field{"k", DataType::kInt64}})};
  auto joined = HashJoin(left, {0}, right, {});
  EXPECT_FALSE(joined.ok());
}

}  // namespace
}  // namespace congress
