#include "engine/executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "storage/group_index.h"
#include "util/random.h"

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
  const GroupResult* a1 = result->Find({Value("A"), Value(int64_t{1})});
  ASSERT_NE(a1, nullptr);
  EXPECT_DOUBLE_EQ(a1->aggregates[0], 3.0);
  const GroupResult* a2 = result->Find({Value("A"), Value(int64_t{2})});
  ASSERT_NE(a2, nullptr);
  EXPECT_DOUBLE_EQ(a2->aggregates[0], 9.0);
  const GroupResult* b1 = result->Find({Value("B"), Value(int64_t{1})});
  ASSERT_NE(b1, nullptr);
  EXPECT_DOUBLE_EQ(b1->aggregates[0], 9.0);
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
  const GroupResult* a = result->Find({Value("A")});
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->aggregates[0], 12.0);
  EXPECT_DOUBLE_EQ(a->aggregates[1], 4.0);
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
  const GroupResult& g = result->rows()[0];
  EXPECT_TRUE(g.key.empty());
  EXPECT_DOUBLE_EQ(g.aggregates[0], 21.0);
  EXPECT_DOUBLE_EQ(g.aggregates[1], 3.5);
  EXPECT_DOUBLE_EQ(g.aggregates[2], 1.0);
  EXPECT_DOUBLE_EQ(g.aggregates[3], 6.0);
}

TEST(ExecutorTest, PredicateFilters) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  q.predicate = MakeRangePredicate(2, 2.0, 5.0);
  auto result = ExecuteExact(t, q);
  ASSERT_TRUE(result.ok());
  const GroupResult* a = result->Find({Value("A")});
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->aggregates[0], 5.0);  // 2 + 3.
  const GroupResult* b = result->Find({Value("B")});
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->aggregates[0], 9.0);  // 4 + 5.
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
    EXPECT_TRUE(result->rows()[i - 1].key < result->rows()[i].key);
  }
}

// --- Covering-index scans ---------------------------------------------

/// Bitwise Value equality: doubles compare by bit pattern, so -0.0 and
/// +0.0 differ and NaN matches NaN.
bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() != DataType::kDouble) return a == b;
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void ExpectBitIdentical(const QueryResult& expected, const QueryResult& actual,
                        const std::string& label) {
  ASSERT_EQ(expected.num_groups(), actual.num_groups()) << label;
  for (size_t i = 0; i < expected.rows().size(); ++i) {
    const GroupResult& e = expected.rows()[i];
    const GroupResult& a = actual.rows()[i];
    ASSERT_EQ(e.key.size(), a.key.size()) << label;
    for (size_t k = 0; k < e.key.size(); ++k) {
      EXPECT_TRUE(SameBits(e.key[k], a.key[k]))
          << label << ", group " << i << ": " << GroupKeyToString(e.key)
          << " vs " << GroupKeyToString(a.key);
    }
    ASSERT_EQ(e.aggregates.size(), a.aggregates.size()) << label;
    for (size_t j = 0; j < e.aggregates.size(); ++j) {
      EXPECT_TRUE(SameBits(Value(e.aggregates[j]), Value(a.aggregates[j])))
          << label << ", group " << i << ", aggregate " << j << ": "
          << e.aggregates[j] << " vs " << a.aggregates[j];
    }
  }
}

/// Per-row reference executor. Groups are found by linear search with
/// Value equality (an ordered map cannot hold NaN keys: NaN is unordered),
/// so each NaN cell is its own group and -0.0 joins +0.0. Every row, even
/// one the predicate rejects, claims its group's representative key on
/// first sight; matching rows fold with Accumulator::Add in row order.
QueryResult NaiveExact(const Table& t, const GroupByQuery& q) {
  std::vector<GroupKey> keys;
  std::vector<std::vector<Accumulator>> accs;
  for (size_t row = 0; row < t.num_rows(); ++row) {
    const GroupKey key = t.KeyForRow(row, q.group_columns);
    size_t g = 0;
    while (g < keys.size() && !(keys[g] == key)) ++g;
    if (g == keys.size()) {
      keys.push_back(key);
      accs.emplace_back();
      for (const AggregateSpec& spec : q.aggregates) {
        accs.back().emplace_back(spec.kind);
      }
    }
    if (q.predicate != nullptr && !q.predicate->Matches(t, row)) continue;
    for (size_t a = 0; a < q.aggregates.size(); ++a) {
      accs[g][a].Add(AggregateInput(q.aggregates[a], t, row));
    }
  }
  QueryResult result;
  for (size_t g = 0; g < keys.size(); ++g) {
    if (accs[g][0].count() == 0) continue;
    std::vector<double> finals;
    for (const Accumulator& acc : accs[g]) finals.push_back(acc.Finish());
    result.Add(keys[g], std::move(finals));
  }
  result.FilterHaving(q.having);
  result.SortByKey();
  return result;
}

/// Columns: 0 i (int64), 1 d (double), 2 s (string), 3 v (double),
/// 4 w (int64). Row 0 has d = -0.0 (its group's representative sign) and
/// v = 1000, outside the [0, 100] predicate range used below, so that
/// group's first row is always filtered out. `nan_rows` rows spread over
/// the table carry d = NaN.
Table RandomTable(uint64_t seed, size_t rows, int64_t int_range,
                  const std::vector<double>& doubles,
                  const std::vector<const char*>& strings, size_t nan_rows) {
  Table t{Schema({Field{"i", DataType::kInt64},
                  Field{"d", DataType::kDouble},
                  Field{"s", DataType::kString},
                  Field{"v", DataType::kDouble},
                  Field{"w", DataType::kInt64}})};
  Random rng(seed);
  const int64_t last_double = static_cast<int64_t>(doubles.size()) - 1;
  const int64_t last_string = static_cast<int64_t>(strings.size()) - 1;
  for (size_t row = 0; row < rows; ++row) {
    double d = row == 0 ? -0.0 : doubles[rng.UniformRange(0, last_double)];
    if (nan_rows > 0 && row % (rows / nan_rows) == rows / nan_rows / 2) {
      d = std::nan("");
    }
    const double v = row == 0 ? 1000.0 : 100.0 * rng.NextDouble();
    EXPECT_TRUE(t.AppendRow({Value(rng.UniformRange(0, int_range - 1)),
                             Value(d),
                             Value(strings[rng.UniformRange(0, last_string)]),
                             Value(v), Value(rng.UniformRange(1, 9))})
                    .ok());
  }
  return t;
}

/// Queries over every grouping the finest index {s, d, i} covers, with
/// and without a predicate, with HAVING, MIN/MAX and an expression.
std::vector<GroupByQuery> CoveredQueries() {
  const std::vector<std::vector<size_t>> groupings = {
      {}, {0}, {1}, {2}, {0, 1}, {1, 0}, {2, 0}, {0, 1, 2}, {1, 2, 0}};
  std::vector<GroupByQuery> queries;
  for (const std::vector<size_t>& grouping : groupings) {
    GroupByQuery q;
    q.group_columns = grouping;
    q.aggregates = {
        AggregateSpec{AggregateKind::kSum, 3},
        AggregateSpec{AggregateKind::kCount, 0},
        AggregateSpec{AggregateKind::kAvg, 3},
        AggregateSpec{AggregateKind::kMin, 3},
        AggregateSpec{AggregateKind::kMax, 4},
        AggregateSpec{AggregateKind::kSum,
                      MakeBinaryExpr(ArithOp::kMul, MakeColumnExpr(3),
                                     MakeColumnExpr(4))}};
    queries.push_back(q);
    q.predicate = MakeRangePredicate(3, 0.0, 100.0);
    queries.push_back(q);
    q.having = {HavingCondition{1, CompareOp::kGt, 3.0}};
    queries.push_back(q);
  }
  return queries;
}

/// Runs every query against NaiveExact with the query's own index and
/// with the finest index {s, d, i} covering it, at 1, 4 and 8 threads,
/// requiring the same bits in the same row order.
void ExpectCoveringScansIdentical(
    const Table& t, const std::vector<GroupByQuery>& queries = CoveredQueries(),
    size_t morsel_size = 256) {
  ExecutorOptions build;
  build.num_threads = 4;
  build.morsel_size = morsel_size;
  auto fine = GroupIndex::Build(t, {2, 1, 0}, build);
  ASSERT_TRUE(fine.ok());
  for (const GroupByQuery& q : queries) {
    const QueryResult reference = NaiveExact(t, q);
    for (size_t threads : {1, 4, 8}) {
      ExecutorOptions options;
      options.num_threads = threads;
      options.morsel_size = morsel_size;
      const std::string label = q.ToString() + " @" +
                                std::to_string(threads) + " threads";
      auto self_built = ExecuteExact(t, q, options);
      auto covered = ExecuteExact(t, q, options, &*fine);
      ASSERT_TRUE(self_built.ok()) << label;
      ASSERT_TRUE(covered.ok()) << label;
      ExpectBitIdentical(reference, *self_built, "self-built " + label);
      ExpectBitIdentical(reference, *covered, "covering " + label);
    }
  }
}

TEST(CoveringScanTest, ManyGroupsMatchReferenceBitwise) {
  ExpectCoveringScansIdentical(RandomTable(
      11, 5000, 40, {-0.0, 0.0, 1.5, -2.25, 7.0}, {"x", "y", "z"}, 0));
}

TEST(CoveringScanTest, NanKeysMatchReferenceBitwise) {
  // Few enough groups (at most 2 * 3 * 2 + 3) that sorting keys holding
  // NaN, which compares false both ways, stays on the insertion-sort path
  // of std::sort and so depends only on its input order.
  ExpectCoveringScansIdentical(
      RandomTable(12, 2000, 2, {-0.0, 0.0, 1.5}, {"x", "y"}, 3));
}

// --- Shared fold state ---------------------------------------------------
//
// Aggregates of one group see the same rows, and aggregates over the same
// input see the same values, so a scan may share a match count per group
// and a running state per distinct input. These cases pin every kind of
// sharing against the per-aggregate reference.

/// `aggregates` over groupings of double, int64 and string keys, each
/// with and without a predicate, optionally with `having`.
std::vector<GroupByQuery> SharingQueries(
    const std::vector<AggregateSpec>& aggregates,
    const std::vector<HavingCondition>& having = {}) {
  std::vector<GroupByQuery> queries;
  for (const std::vector<size_t>& grouping :
       std::vector<std::vector<size_t>>{{}, {2}, {1, 0}, {0, 1, 2}}) {
    GroupByQuery q;
    q.group_columns = grouping;
    q.aggregates = aggregates;
    q.having = having;
    queries.push_back(q);
    q.predicate = MakeRangePredicate(3, 0.0, 100.0);
    queries.push_back(q);
  }
  return queries;
}

Table SharingTable() {
  return RandomTable(21, 6000, 30, {-0.0, 0.0, 1.5, -2.25, 7.0},
                     {"x", "y", "z"}, 0);
}

TEST(SharedFoldTest, AvgAndSumOverOneColumn) {
  ExpectCoveringScansIdentical(
      SharingTable(),
      SharingQueries({AggregateSpec{AggregateKind::kAvg, 3},
                      AggregateSpec{AggregateKind::kSum, 3}}),
      512);
}

TEST(SharedFoldTest, SumMinMaxOverOneColumn) {
  ExpectCoveringScansIdentical(
      SharingTable(),
      SharingQueries({AggregateSpec{AggregateKind::kSum, 3},
                      AggregateSpec{AggregateKind::kMin, 3},
                      AggregateSpec{AggregateKind::kMax, 3}}),
      512);
}

TEST(SharedFoldTest, MinMaxKeepFirstSignedZeroAndSkipNan) {
  // d holds -0.0, 0.0 and NaN: MIN and MAX must keep the first zero seen
  // and never pick a NaN, while SUM over the same input propagates it.
  ExpectCoveringScansIdentical(
      RandomTable(23, 2000, 2, {-0.0, 0.0, 1.5}, {"x", "y"}, 4),
      SharingQueries({AggregateSpec{AggregateKind::kMin, 1},
                      AggregateSpec{AggregateKind::kMax, 1},
                      AggregateSpec{AggregateKind::kSum, 1}}),
      512);
}

TEST(SharedFoldTest, SharedAndTextuallyEqualExpressions) {
  // One expression object used twice shares an input; two separate
  // objects that print alike do not, and all four must agree bitwise
  // with the reference.
  const ExpressionPtr shared =
      MakeBinaryExpr(ArithOp::kMul, MakeColumnExpr(3), MakeColumnExpr(4));
  auto fresh = [] {
    return MakeBinaryExpr(ArithOp::kMul, MakeColumnExpr(3), MakeColumnExpr(4));
  };
  ExpectCoveringScansIdentical(
      SharingTable(),
      SharingQueries({AggregateSpec{AggregateKind::kSum, shared},
                      AggregateSpec{AggregateKind::kAvg, shared},
                      AggregateSpec{AggregateKind::kSum, fresh()},
                      AggregateSpec{AggregateKind::kMax, fresh()}}),
      512);
}

TEST(SharedFoldTest, Int64AggregateColumn) {
  ExpectCoveringScansIdentical(
      SharingTable(),
      SharingQueries({AggregateSpec{AggregateKind::kSum, 4},
                      AggregateSpec{AggregateKind::kAvg, 4},
                      AggregateSpec{AggregateKind::kMin, 4},
                      AggregateSpec{AggregateKind::kMax, 0}}),
      512);
}

TEST(SharedFoldTest, CountOnly) {
  ExpectCoveringScansIdentical(
      SharingTable(),
      SharingQueries({AggregateSpec{AggregateKind::kCount, 0}}), 512);
}

TEST(SharedFoldTest, HavingOverNanAndSignedZeroKeys) {
  // Few groups, as in NanKeysMatchReferenceBitwise, so the key sort over
  // NaN stays on std::sort's insertion-sort path. Each NaN row is its own
  // group with a single v, so SUM(v) > 50 keeps some NaN groups and drops
  // others; the zero group's first row carries -0.0.
  ExpectCoveringScansIdentical(
      RandomTable(22, 2000, 2, {-0.0, 0.0, 1.5}, {"x", "y"}, 4),
      SharingQueries({AggregateSpec{AggregateKind::kSum, 3},
                      AggregateSpec{AggregateKind::kCount, 0},
                      AggregateSpec{AggregateKind::kMin, 3}},
                     {HavingCondition{0, CompareOp::kGt, 50.0}}),
      512);
}

TEST(CoveringScanTest, UncoveredGroupingFallsBackToOwnIndex) {
  Table t = MakeTable();
  auto partial = GroupIndex::Build(t, {1});
  ASSERT_TRUE(partial.ok());
  GroupByQuery q;
  q.group_columns = {0, 1};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  auto covered = ExecuteExact(t, q, {}, &*partial);
  ASSERT_TRUE(covered.ok());
  ExpectBitIdentical(NaiveExact(t, q), *covered, "uncovered");
}

TEST(CoveringScanTest, RejectsIndexOfAnotherTable) {
  Table t = MakeTable();
  Table other = MakeTable();
  ASSERT_TRUE(other.AppendRow({Value("C"), Value(int64_t{3}), Value(7.0)})
                  .ok());
  auto index = GroupIndex::Build(other, {0, 1});
  ASSERT_TRUE(index.ok());
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kCount, 0}};
  auto result = ExecuteExact(t, q, {}, &*index);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
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
