#include "engine/exact_rollups.h"

#include <gtest/gtest.h>

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

/// The memo's answer of `query`, checked bitwise against ExecuteExact
/// with no covering index and no zones.
void ExpectSameAsScan(const ExactRollups& rollups, const ZoneMap& zones,
                      const GroupByQuery& query, const char* phase) {
  auto reference = ExecuteExact(*rollups.table(), query);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto memo = rollups.Execute(query, {}, &zones);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  const Status same =
      testing::CheckExactIdentical(*reference, *memo, Label(query, phase));
  EXPECT_TRUE(same.ok()) << same.ToString();
}

TEST(ExactRollupsTest, EachAnswerColdMatchesTheScan) {
  // A fresh memo per query: its answer is the first (cold) one, built
  // from nothing, then the second (warm) one, read from what it built.
  const auto table = MakeTable(3000);
  const auto index = Census(*table);
  const ZoneMap zones = ZoneMap::Build(*table);
  for (const GroupByQuery& query : Queries(table->num_rows())) {
    ExactRollups rollups(table, index);
    ExpectSameAsScan(rollups, zones, query, "cold");
    ExpectSameAsScan(rollups, zones, query, "warm");
    EXPECT_EQ(rollups.num_entries(), 1u);
  }
}

TEST(ExactRollupsTest, SharedMemoMatchesTheScanInEveryOrder) {
  // One memo for all queries, so entries and states built by one query
  // serve the next ones; each query is asked twice, then all again.
  const auto table = MakeTable(3000);
  const auto index = Census(*table);
  const ZoneMap zones = ZoneMap::Build(*table);
  ExactRollups rollups(table, index);
  const std::vector<GroupByQuery> queries = Queries(table->num_rows());
  for (const GroupByQuery& query : queries) {
    ExpectSameAsScan(rollups, zones, query, "first");
    ExpectSameAsScan(rollups, zones, query, "second");
  }
  for (auto it = queries.rbegin(); it != queries.rend(); ++it) {
    ExpectSameAsScan(rollups, zones, *it, "again");
  }
  EXPECT_EQ(rollups.num_entries(), Groupings().size());
  EXPECT_GT(rollups.state_bytes(), 0u);
  EXPECT_LE(rollups.state_bytes(), rollups.state_byte_limit());
  EXPECT_EQ(rollups.state_byte_limit(), table->num_rows() * sizeof(uint32_t));
}

TEST(ExactRollupsTest, ExpressionInputsAndUncoveredGroupingsScan) {
  const auto table = MakeTable(2000);
  const auto index = Census(*table);
  const ZoneMap zones = ZoneMap::Build(*table);
  ExactRollups rollups(table, index);
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
    ExpectSameAsScan(rollups, zones, expression, phase);
    ExpectSameAsScan(rollups, zones, uncovered, phase);
  }
  // The expression's grouping has an entry, but no state was memoized
  // for it; the uncovered grouping has no entry.
  EXPECT_EQ(rollups.num_entries(), 1u);
  EXPECT_EQ(rollups.state_bytes(), 0u);
}

TEST(ExactRollupsTest, EmptyTable) {
  const auto table = MakeTable(0);
  const auto index = Census(*table);
  const ZoneMap zones = ZoneMap::Build(*table);
  ExactRollups rollups(table, index);
  for (const GroupByQuery& query : Queries(100)) {
    ExpectSameAsScan(rollups, zones, query, "cold");
    ExpectSameAsScan(rollups, zones, query, "warm");
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
  const ZoneMap zones = ZoneMap::Build(*table);
  ExactRollups rollups(table, index);

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
    ExpectSameAsScan(rollups, zones, finest, round == 0 ? "cold" : "warm");
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
  ExpectSameAsScan(rollups, zones, coarse, "cold");
  ExpectSameAsScan(rollups, zones, coarse, "warm");
  EXPECT_EQ(rollups.state_bytes(), 3 * sizeof(double));
#ifndef CONGRESS_DISABLE_OBS
  EXPECT_EQ(hits.value() - hits_before, 2u);
#endif
}

TEST(ExactRollupsTest, NaNKeysAreSortedPerQuery) {
  // An index whose keys hold a NaN (a census refuses one) has no total
  // key order, so its groupings are answered as ExecuteExact over it.
  Table t{Schema({Field{"k", DataType::kDouble}, Field{"v", DataType::kInt64}})};
  const double keys[] = {2.0, kNaN, -1.0, kNaN, 0.0, -0.0};
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(keys[i % 6]), Value(int64_t{i})}).ok());
  }
  const auto table = std::make_shared<const Table>(std::move(t));
  auto built = GroupIndex::Build(*table, {0});
  ASSERT_TRUE(built.ok());
  const ZoneMap zones = ZoneMap::Build(*table);
  ExactRollups rollups(table,
                       std::make_shared<const GroupIndex>(std::move(*built)));
  GroupByQuery query;
  query.group_columns = {0};
  query.aggregates = {{AggregateKind::kSum, 1}, {AggregateKind::kMax, 1}};
  ExpectSameAsScan(rollups, zones, query, "cold");
  ExpectSameAsScan(rollups, zones, query, "warm");
  EXPECT_EQ(rollups.state_bytes(), 0u);
}

TEST(ExactRollupsTest, RejectsWhatExecuteExactRejects) {
  const auto table = MakeTable(300);
  ExactRollups rollups(table, Census(*table));
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
  const ZoneMap other = ZoneMap::Build(*MakeTable(10));
  GroupByQuery sum;
  sum.group_columns = {kKind};
  sum.aggregates = {{AggregateKind::kSum, kAmount}};
  EXPECT_EQ(rollups.Execute(sum, {}, &other).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace congress
