#include "engine/exact_rollups.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/expression.h"
#include "engine/predicate.h"
#include "engine/zone_map.h"
#include "obs/metrics.h"
#include "testing/oracles.h"
#include "util/random.h"

namespace congress {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr size_t kRegion = 0;  // string grouping column
constexpr size_t kKind = 1;    // int64 grouping column
constexpr size_t kLevel = 2;   // double grouping column, -0.0 seen first
constexpr size_t kAmount = 3;  // double measure: NaN, ±0.0
constexpr size_t kBig = 4;     // int64 measure beyond 2^53
constexpr size_t kId = 5;      // int64 row id, clustered

/// A table whose measures hold NaN, ±0.0 and int64 values that no double
/// represents, over three grouping columns of three types.
std::shared_ptr<const Table> MakeTable(size_t num_rows) {
  auto t = std::make_shared<Table>(Schema({Field{"region", DataType::kString},
                                           Field{"kind", DataType::kInt64},
                                           Field{"level", DataType::kDouble},
                                           Field{"amount", DataType::kDouble},
                                           Field{"big", DataType::kInt64},
                                           Field{"id", DataType::kInt64}}));
  const char* regions[] = {"east", "west", "north"};
  const double levels[] = {-0.0, 1.5, 0.0, -2.0, 3.25};
  for (size_t i = 0; i < num_rows; ++i) {
    double amount = static_cast<double>(i % 13) * 0.1 - 0.4;
    if (i % 97 == 5) amount = kNaN;
    if (i % 89 == 7) amount = -0.0;
    if (i % 83 == 11) amount = 0.0;
    const int64_t big = (int64_t{1} << 53) + static_cast<int64_t>(i * 7 % 31);
    EXPECT_TRUE(t->AppendRow({Value(regions[(i / 7) % 3]),
                              Value(static_cast<int64_t>(i % 4)),
                              Value(levels[(i / 3) % 5]), Value(amount),
                              Value(big), Value(static_cast<int64_t>(i))})
                    .ok());
  }
  return t;
}

std::shared_ptr<const GroupIndex> Census(const Table& table) {
  auto index = GroupIndex::Build(table, {kRegion, kKind, kLevel});
  EXPECT_TRUE(index.ok());
  return std::make_shared<const GroupIndex>(std::move(index).value());
}

std::vector<std::vector<size_t>> Groupings() {
  return {{},
          {kRegion},
          {kKind},
          {kLevel},
          {kRegion, kKind},
          {kLevel, kRegion},
          {kKind, kLevel},
          {kRegion, kKind, kLevel},
          {kLevel, kKind, kRegion}};
}

std::vector<std::vector<AggregateSpec>> AggregateLists() {
  return {
      {{AggregateKind::kSum, kAmount},
       {AggregateKind::kCount, 0},
       {AggregateKind::kAvg, kAmount},
       {AggregateKind::kMin, kAmount},
       {AggregateKind::kMax, kAmount}},
      {{AggregateKind::kSum, kBig},
       {AggregateKind::kAvg, kBig},
       {AggregateKind::kMin, kBig},
       {AggregateKind::kMax, kBig},
       {AggregateKind::kSum, kAmount}},
      {{AggregateKind::kCount, 0}},
  };
}

/// Every grouping × aggregate list × {no HAVING, HAVING} × {unranged,
/// ranged over the clustered id}.
std::vector<GroupByQuery> Queries(size_t num_rows) {
  std::vector<GroupByQuery> queries;
  for (const std::vector<size_t>& columns : Groupings()) {
    for (const std::vector<AggregateSpec>& aggregates : AggregateLists()) {
      for (bool having : {false, true}) {
        for (bool ranged : {false, true}) {
          GroupByQuery q;
          q.group_columns = columns;
          q.aggregates = aggregates;
          if (having) q.having = {{0, CompareOp::kGt, 5.0}};
          if (ranged) {
            q.predicate = MakeRangePredicate(
                kId, static_cast<double>(num_rows / 5),
                static_cast<double>(num_rows * 3 / 4));
          }
          queries.push_back(std::move(q));
        }
      }
    }
  }
  return queries;
}

std::string Label(const GroupByQuery& query, const char* phase) {
  return std::string(phase) + " " + query.ToString();
}

void ExpectIdentical(const QueryResult& expected, const QueryResult& actual,
                     const std::string& label) {
  const Status same = testing::CheckExactIdentical(expected, actual, label);
  EXPECT_TRUE(same.ok()) << same.ToString();
}

/// The memo's answer of `query`, checked bitwise against ExecuteExact
/// with no zones.
void ExpectSameAsScan(const ExactRollups& rollups, const GroupByQuery& query,
                      const char* phase) {
  auto reference = ExecuteExact(*rollups.table(), query);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto memo = rollups.Execute(query);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  ExpectIdentical(*reference, *memo, Label(query, phase));
}

std::shared_ptr<const ZoneMap> Zones(const Table& table) {
  return std::make_shared<const ZoneMap>(ZoneMap::Build(table));
}

TEST(ExactRollupsTest, EachAnswerColdMatchesTheScan) {
  // A fresh memo per query: its answer is the first (cold) one, built
  // from nothing, then the second (warm) one, read from what it built.
  const auto table = MakeTable(3000);
  const auto index = Census(*table);
  const auto zones = Zones(*table);
  for (const GroupByQuery& query : Queries(table->num_rows())) {
    ExactRollups rollups(table, index, zones);
    ExpectSameAsScan(rollups, query, "cold");
    ExpectSameAsScan(rollups, query, "warm");
    EXPECT_EQ(rollups.num_entries(), 1u);
  }
}

TEST(ExactRollupsTest, SharedMemoMatchesTheScanInEveryOrder) {
  // One memo for all queries, so entries and states built by one query
  // serve the next ones; each query is asked twice, then all again.
  const auto table = MakeTable(3000);
  const auto index = Census(*table);
  ExactRollups rollups(table, index, Zones(*table));
  const std::vector<GroupByQuery> queries = Queries(table->num_rows());
  for (const GroupByQuery& query : queries) {
    ExpectSameAsScan(rollups, query, "first");
    ExpectSameAsScan(rollups, query, "second");
  }
  for (auto it = queries.rbegin(); it != queries.rend(); ++it) {
    ExpectSameAsScan(rollups, *it, "again");
  }
  EXPECT_EQ(rollups.num_entries(), Groupings().size());
  EXPECT_GT(rollups.state_bytes(), 0u);
  EXPECT_LE(rollups.state_bytes(), rollups.state_byte_limit());
  EXPECT_EQ(rollups.state_byte_limit(), table->num_rows() * sizeof(uint32_t));
}

TEST(ExactRollupsTest, ExpressionInputsAndUncoveredGroupingsScan) {
  const auto table = MakeTable(2000);
  const auto index = Census(*table);
  ExactRollups rollups(table, index, Zones(*table));
  GroupByQuery expression;
  expression.group_columns = {kRegion};
  expression.aggregates = {
      {AggregateKind::kSum,
       MakeBinaryExpr(ArithOp::kMul, MakeColumnExpr(kAmount),
                      MakeLiteralExpr(2.0))},
      {AggregateKind::kCount, 0}};
  GroupByQuery uncovered;
  uncovered.group_columns = {kRegion, kId};
  uncovered.aggregates = {{AggregateKind::kSum, kAmount}};
  for (const char* phase : {"cold", "warm"}) {
    ExpectSameAsScan(rollups, expression, phase);
    ExpectSameAsScan(rollups, uncovered, phase);
  }
  // The expression's grouping has an entry, but no state was memoized
  // for it; the uncovered grouping has no entry.
  EXPECT_EQ(rollups.num_entries(), 1u);
  EXPECT_EQ(rollups.state_bytes(), 0u);
}

TEST(ExactRollupsTest, EmptyTable) {
  const auto table = MakeTable(0);
  const auto index = Census(*table);
  ExactRollups rollups(table, index, Zones(*table));
  for (const GroupByQuery& query : Queries(100)) {
    ExpectSameAsScan(rollups, query, "cold");
    ExpectSameAsScan(rollups, query, "warm");
  }
  EXPECT_EQ(rollups.state_byte_limit(), 0u);
  EXPECT_EQ(rollups.state_bytes(), 0u);
}

TEST(ExactRollupsTest, StatesBeyondTheByteBoundAreFoldedPerQuery) {
  // Every row its own group at the finest grouping: one state there
  // takes 8 bytes a row, twice the index's 4 bytes of row id, so it is
  // never memoized. A coarse grouping's states fit.
  Table t{Schema({Field{"g", DataType::kInt64}, Field{"h", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(int64_t{i}), Value(int64_t{i % 3}),
                             Value(static_cast<double>(i) * 0.25 - 7.0)})
                    .ok());
  }
  const auto table = std::make_shared<const Table>(std::move(t));
  auto built = GroupIndex::Build(*table, {0, 1});
  ASSERT_TRUE(built.ok());
  const auto index = std::make_shared<const GroupIndex>(std::move(*built));
  ExactRollups rollups(table, index, Zones(*table));

  GroupByQuery finest;
  finest.group_columns = {0, 1};
  finest.aggregates = {{AggregateKind::kSum, 2}, {AggregateKind::kCount, 0}};
  GroupByQuery coarse = finest;
  coarse.group_columns = {1};

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter& hits = registry.GetCounter("engine.exact_rollup_hits");
  const obs::Counter& builds =
      registry.GetCounter("engine.exact_rollup_builds");
  const obs::Counter& scanned = registry.GetCounter("engine.rows_scanned");
  for (int round = 0; round < 2; ++round) {
    const uint64_t hits_before = hits.value();
    const uint64_t builds_before = builds.value();
    const uint64_t scanned_before = scanned.value();
    ExpectSameAsScan(rollups, finest, round == 0 ? "cold" : "warm");
    EXPECT_EQ(rollups.state_bytes(), 0u);
#ifndef CONGRESS_DISABLE_OBS
    // No hit: the query folded all of its rows (the reference scan
    // counts them once more), and only the entry was built, once.
    EXPECT_EQ(hits.value(), hits_before);
    EXPECT_EQ(builds.value() - builds_before, round == 0 ? 1u : 0u);
    EXPECT_EQ(scanned.value() - scanned_before, 2 * table->num_rows());
#endif
  }
  const uint64_t hits_before = hits.value();
  ExpectSameAsScan(rollups, coarse, "cold");
  ExpectSameAsScan(rollups, coarse, "warm");
  EXPECT_EQ(rollups.state_bytes(), 3 * sizeof(double));
#ifndef CONGRESS_DISABLE_OBS
  EXPECT_EQ(hits.value() - hits_before, 2u);
#endif
}

TEST(ExactRollupsTest, NaNKeysAreSortedPerQuery) {
  // An index whose keys hold a NaN (a census refuses one) has no total
  // key order, so each answer sorts its groups by their first rows, as
  // ExecuteExact does; the entry's ids and memoized states still serve.
  Table t{Schema({Field{"k", DataType::kDouble}, Field{"v", DataType::kInt64}})};
  const double keys[] = {2.0, kNaN, -1.0, kNaN, 0.0, -0.0};
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(keys[i % 6]), Value(int64_t{i})}).ok());
  }
  const auto table = std::make_shared<const Table>(std::move(t));
  auto built = GroupIndex::Build(*table, {0});
  ASSERT_TRUE(built.ok());
  ExactRollups rollups(table,
                       std::make_shared<const GroupIndex>(std::move(*built)),
                       Zones(*table));
  GroupByQuery sum;
  sum.group_columns = {0};
  sum.aggregates = {{AggregateKind::kSum, 1}};
  // 43 groups: SUM's state fits the 480-byte bound, SUM's and MAX's do not.
  GroupByQuery sum_max = sum;
  sum_max.aggregates.push_back({AggregateKind::kMax, 1});
  GroupByQuery ranged = sum_max;
  ranged.predicate = MakeRangePredicate(1, 30.0, 90.0);
  for (const GroupByQuery& query : {sum, sum_max, ranged}) {
    ExpectSameAsScan(rollups, query, "cold");
    ExpectSameAsScan(rollups, query, "warm");
  }
  EXPECT_EQ(rollups.num_entries(), 1u);
  EXPECT_EQ(rollups.state_bytes(), 43 * sizeof(double));
}

TEST(ExactRollupsTest, RejectsWhatExecuteExactRejects) {
  const auto table = MakeTable(300);
  ExactRollups rollups(table, Census(*table), Zones(*table));
  GroupByQuery no_aggregates;
  no_aggregates.group_columns = {kRegion};
  EXPECT_EQ(rollups.Execute(no_aggregates).status().code(),
            StatusCode::kInvalidArgument);
  GroupByQuery bad_having;
  bad_having.group_columns = {kKind};
  bad_having.aggregates = {{AggregateKind::kCount, 0}};
  bad_having.having = {{3, CompareOp::kGt, 0.0}};
  EXPECT_EQ(rollups.Execute(bad_having).status().code(),
            StatusCode::kInvalidArgument);
  GroupByQuery out_of_range = bad_having;
  out_of_range.having.clear();
  out_of_range.group_columns = {17};
  EXPECT_EQ(rollups.Execute(out_of_range).status().code(),
            StatusCode::kInvalidArgument);
  // A zone map or an index of another table is refused, covered
  // grouping or not.
  const auto other = MakeTable(10);
  const ExactRollups foreign_zones(table, Census(*table), Zones(*other));
  const ExactRollups foreign_index(table, Census(*other), Zones(*table));
  GroupByQuery sum;
  sum.aggregates = {{AggregateKind::kSum, kAmount}};
  for (const std::vector<size_t>& columns :
       std::vector<std::vector<size_t>>{{kKind}, {kKind, kId}}) {
    sum.group_columns = columns;
    EXPECT_EQ(foreign_zones.Execute(sum).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(foreign_index.Execute(sum).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// --- Covered scans against a per-row reference ---------------------------
//
// A finest index {s, d, i} covers every grouping of its columns. Each
// query is answered by ExecuteExact with its own index and by a fresh
// memo over the finest index, cold and then warm, at 1, 4 and 8 threads;
// every answer must have the per-row reference's bits in its row order.

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

void ExpectCoveringScansIdentical(
    Table t, const std::vector<GroupByQuery>& queries = CoveredQueries(),
    size_t morsel_size = 256) {
  const auto table = std::make_shared<const Table>(std::move(t));
  ExecutorOptions build;
  build.num_threads = 4;
  build.morsel_size = morsel_size;
  auto fine = GroupIndex::Build(*table, {2, 1, 0}, build);
  ASSERT_TRUE(fine.ok());
  const auto index = std::make_shared<const GroupIndex>(std::move(*fine));
  const auto zones = Zones(*table);
  for (const GroupByQuery& q : queries) {
    const QueryResult reference = NaiveExact(*table, q);
    for (size_t threads : {1, 4, 8}) {
      ExecutorOptions options;
      options.num_threads = threads;
      options.morsel_size = morsel_size;
      const std::string label = q.ToString() + " @" +
                                std::to_string(threads) + " threads";
      auto self_built = ExecuteExact(*table, q, options);
      ASSERT_TRUE(self_built.ok()) << label;
      ExpectIdentical(reference, *self_built, "self-built " + label);
      const ExactRollups rollups(table, index, zones);
      for (const char* phase : {"cold ", "warm "}) {
        auto memo = rollups.Execute(q, options);
        ASSERT_TRUE(memo.ok()) << label;
        ExpectIdentical(reference, *memo, std::string(phase) + label);
      }
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

/// 6-row relation: groups (A,1), (A,2), (B,1).
Table SmallTable() {
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

TEST(CoveringScanTest, UncoveredGroupingFallsBackToOwnIndex) {
  const auto t = std::make_shared<const Table>(SmallTable());
  auto partial = GroupIndex::Build(*t, {1});
  ASSERT_TRUE(partial.ok());
  const ExactRollups rollups(
      t, std::make_shared<const GroupIndex>(std::move(*partial)), Zones(*t));
  GroupByQuery q;
  q.group_columns = {0, 1};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  auto covered = rollups.Execute(q);
  ASSERT_TRUE(covered.ok());
  ExpectIdentical(NaiveExact(*t, q), *covered, "uncovered");
  EXPECT_EQ(rollups.num_entries(), 0u);
}

TEST(CoveringScanTest, RejectsIndexOfAnotherTable) {
  const auto t = std::make_shared<const Table>(SmallTable());
  Table other = SmallTable();
  ASSERT_TRUE(other.AppendRow({Value("C"), Value(int64_t{3}), Value(7.0)})
                  .ok());
  auto index = GroupIndex::Build(other, {0, 1});
  ASSERT_TRUE(index.ok());
  const ExactRollups rollups(
      t, std::make_shared<const GroupIndex>(std::move(*index)), Zones(*t));
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kCount, 0}};
  auto result = rollups.Execute(q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace congress
