#include <gtest/gtest.h>

#include <atomic>

#include "engine/executor.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"
#include "util/parallel.h"

namespace congress {
namespace {

const std::initializer_list<size_t> kThreadCounts = {1, 2, 4, 8};

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

/// Exact bit-equality between answers, including group order.
void ExpectIdentical(const ApproximateResult& expected,
                     const ApproximateResult& actual, size_t threads) {
  ASSERT_EQ(expected.num_groups(), actual.num_groups())
      << threads << " threads";
  for (size_t i = 0; i < expected.num_groups(); ++i) {
    const ApproximateGroupRow e = expected.row(i);
    const ApproximateGroupRow a = actual.row(i);
    EXPECT_TRUE(std::ranges::equal(e.key, a.key))
        << threads << " threads, group " << i;
    ASSERT_EQ(e.estimates.size(), a.estimates.size());
    for (size_t j = 0; j < e.estimates.size(); ++j) {
      // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the engine promises the same
      // bits for every thread count, not just close values.
      EXPECT_EQ(e.estimates[j], a.estimates[j])
          << threads << " threads, group " << i << ", aggregate " << j;
    }
  }
}

void ExpectAllThreadCountsIdentical(const Table& t, const GroupByQuery& q,
                                    size_t morsel_size = 2) {
  ExecutorOptions serial;
  serial.morsel_size = morsel_size;
  auto reference = ExecuteExact(t, q, serial);
  ASSERT_TRUE(reference.ok());
  for (size_t threads : kThreadCounts) {
    ExecutorOptions options;
    options.num_threads = threads;
    options.morsel_size = morsel_size;
    auto answer = ExecuteExact(t, q, options);
    ASSERT_TRUE(answer.ok()) << threads << " threads";
    ExpectIdentical(*reference, *answer, threads);
  }
}

TEST(ParallelExecutorTest, AllAggregatesIdenticalAcrossThreadCounts) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0, 1};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2},
                  AggregateSpec{AggregateKind::kCount, 0},
                  AggregateSpec{AggregateKind::kAvg, 2},
                  AggregateSpec{AggregateKind::kMin, 2},
                  AggregateSpec{AggregateKind::kMax, 2}};
  ExpectAllThreadCountsIdentical(t, q);
}

TEST(ParallelExecutorTest, EmptyTable) {
  Table t{Schema({Field{"g", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 1}};
  for (size_t threads : kThreadCounts) {
    ExecutorOptions options;
    options.num_threads = threads;
    auto answer = ExecuteExact(t, q, options);
    ASSERT_TRUE(answer.ok()) << threads << " threads";
    EXPECT_EQ(answer->num_groups(), 0u);
    EXPECT_TRUE(CountGroups(t, {0}, options).empty());
  }
}

TEST(ParallelExecutorTest, AllRowsFilteredOut) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  q.predicate = MakeRangePredicate(2, 100.0, 200.0);  // Nothing matches.
  for (size_t threads : kThreadCounts) {
    ExecutorOptions options;
    options.num_threads = threads;
    options.morsel_size = 2;
    auto answer = ExecuteExact(t, q, options);
    ASSERT_TRUE(answer.ok()) << threads << " threads";
    EXPECT_EQ(answer->num_groups(), 0u) << threads << " threads";
  }
}

TEST(ParallelExecutorTest, SingleGroupTable) {
  Table t{Schema({Field{"g", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(int64_t{7}), Value(0.1 * i)}).ok());
  }
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 1},
                  AggregateSpec{AggregateKind::kAvg, 1}};
  ExpectAllThreadCountsIdentical(t, q, /*morsel_size=*/16);
}

TEST(ParallelExecutorTest, CountGroupsIdenticalAcrossThreadCounts) {
  Table t = MakeTable();
  ExecutorOptions serial;
  serial.morsel_size = 2;
  auto reference = CountGroups(t, {0, 1}, serial);
  for (size_t threads : kThreadCounts) {
    ExecutorOptions options;
    options.num_threads = threads;
    options.morsel_size = 2;
    EXPECT_EQ(CountGroups(t, {0, 1}, options), reference)
        << threads << " threads";
  }
}

TEST(ParallelExecutorTest, HashJoinIdenticalAcrossThreadCounts) {
  Table left = MakeTable();
  Table right{Schema({Field{"g1", DataType::kString},
                      Field{"w", DataType::kDouble}})};
  ASSERT_TRUE(right.AppendRow({Value("A"), Value(10.0)}).ok());
  ASSERT_TRUE(right.AppendRow({Value("B"), Value(20.0)}).ok());
  ExecutorOptions serial;
  serial.morsel_size = 2;
  auto reference = HashJoin(left, {0}, right, {0}, serial);
  ASSERT_TRUE(reference.ok());
  for (size_t threads : kThreadCounts) {
    ExecutorOptions options;
    options.num_threads = threads;
    options.morsel_size = 2;
    auto joined = HashJoin(left, {0}, right, {0}, options);
    ASSERT_TRUE(joined.ok()) << threads << " threads";
    ASSERT_EQ(joined->num_rows(), reference->num_rows());
    ASSERT_EQ(joined->num_columns(), reference->num_columns());
    for (size_t r = 0; r < joined->num_rows(); ++r) {
      for (size_t c = 0; c < joined->num_columns(); ++c) {
        EXPECT_EQ(joined->GetValue(r, c), reference->GetValue(r, c))
            << threads << " threads, row " << r << ", col " << c;
      }
    }
  }
}

TEST(ParallelExecutorTest, LargeSkewedTableIdentical) {
  tpcd::LineitemConfig config;
  config.num_tuples = 50'000;
  config.num_groups = 200;
  config.group_skew_z = 1.2;
  config.seed = 42;
  auto data = tpcd::GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  ExpectAllThreadCountsIdentical(data->table, tpcd::MakeQg3(),
                                 /*morsel_size=*/4096);
}

TEST(ParallelForTest, VisitsEveryTaskExactlyOnce) {
  for (size_t threads : kThreadCounts) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    ParallelFor(threads, hits.size(),
                [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << threads << " threads, task " << i;
    }
  }
}

TEST(ParallelForTest, MorselRangesTileTheInput) {
  auto ranges = MorselRanges(100, 32);
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, 100u);
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].first, ranges[i - 1].second);
  }
  EXPECT_TRUE(MorselRanges(0, 32).empty());
}

TEST(ParallelForTest, ZeroThreadsResolvesToHardware) {
  ExecutorOptions options;
  options.num_threads = 0;
  EXPECT_GE(options.ResolvedThreads(), 1u);
}

}  // namespace
}  // namespace congress
