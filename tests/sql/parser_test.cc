#include "sql/parser.h"

#include <gtest/gtest.h>

#include "engine/executor.h"

namespace congress::sql {
namespace {

Schema LineitemSchema() {
  return Schema({Field{"l_id", DataType::kInt64},
                 Field{"l_returnflag", DataType::kInt64},
                 Field{"l_linestatus", DataType::kInt64},
                 Field{"l_shipdate", DataType::kInt64},
                 Field{"l_quantity", DataType::kDouble},
                 Field{"l_extendedprice", DataType::kDouble}});
}

TEST(ParserTest, ParsesSimpleGroupBy) {
  auto stmt = ParseSelect(
      "SELECT l_returnflag, l_linestatus, SUM(l_quantity) FROM lineitem "
      "GROUP BY l_returnflag, l_linestatus;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->table, "lineitem");
  ASSERT_EQ(stmt->items.size(), 3u);
  EXPECT_FALSE(stmt->items[0].is_aggregate);
  EXPECT_TRUE(stmt->items[2].is_aggregate);
  EXPECT_EQ(stmt->items[2].kind, AggregateKind::kSum);
  EXPECT_EQ(stmt->items[2].column, "l_quantity");
  EXPECT_EQ(stmt->group_by,
            (std::vector<std::string>{"l_returnflag", "l_linestatus"}));
  EXPECT_TRUE(stmt->where.empty());
}

TEST(ParserTest, ParsesWhereConjunction) {
  auto stmt = ParseSelect(
      "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate <= 900000 "
      "AND l_id BETWEEN 10 AND 20 AND l_returnflag = 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->where.size(), 3u);
  EXPECT_EQ(stmt->where[0].op, Condition::Op::kLe);
  EXPECT_EQ(stmt->where[0].lo, Value(int64_t{900000}));
  EXPECT_EQ(stmt->where[1].op, Condition::Op::kBetween);
  EXPECT_EQ(stmt->where[1].lo, Value(int64_t{10}));
  EXPECT_EQ(stmt->where[1].hi, Value(int64_t{20}));
  EXPECT_EQ(stmt->where[2].op, Condition::Op::kEq);
}

TEST(ParserTest, ParsesCountStarAndAlias) {
  auto stmt = ParseSelect("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->items.size(), 1u);
  EXPECT_TRUE(stmt->items[0].is_aggregate);
  EXPECT_EQ(stmt->items[0].kind, AggregateKind::kCount);
  EXPECT_TRUE(stmt->items[0].column.empty());
  EXPECT_EQ(stmt->items[0].alias, "n");
}

TEST(ParserTest, ParsesDecimalAndStringLiterals) {
  auto stmt = ParseSelect(
      "SELECT AVG(x) FROM t WHERE y >= 2.5 AND name = 'widget'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where[0].lo, Value(2.5));
  EXPECT_EQ(stmt->where[1].lo, Value("widget"));
}

TEST(ParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT x FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT SUM(x FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT SUM(*) FROM t").ok());  // * only COUNT.
  EXPECT_FALSE(ParseSelect("SELECT x FROM t GROUP x").ok());
  EXPECT_FALSE(ParseSelect("SELECT x FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT x FROM t extra").ok());
  EXPECT_FALSE(ParseSelect("SELECT x FROM t WHERE y ! 3").ok());
}

TEST(ParserTest, ErrorsCarryPosition) {
  auto stmt = ParseSelect("SELECT x FROM t WHERE y <=");
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("position"), std::string::npos);
}

TEST(BindTest, BindsColumnsAndAggregates) {
  auto query = ParseQuery(
      "SELECT l_returnflag, l_linestatus, SUM(l_quantity), COUNT(*) "
      "FROM lineitem GROUP BY l_returnflag, l_linestatus",
      LineitemSchema());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->group_columns, (std::vector<size_t>{1, 2}));
  ASSERT_EQ(query->aggregates.size(), 2u);
  EXPECT_EQ(query->aggregates[0].kind, AggregateKind::kSum);
  EXPECT_EQ(query->aggregates[0].column, 4u);
  EXPECT_EQ(query->aggregates[1].kind, AggregateKind::kCount);
  EXPECT_EQ(query->predicate, nullptr);
}

TEST(BindTest, ReturnsTableName) {
  std::string table;
  auto query = ParseQuery("SELECT SUM(l_quantity) FROM lineitem",
                          LineitemSchema(), &table);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(table, "lineitem");
}

TEST(BindTest, RejectsUnknownColumn) {
  auto query =
      ParseQuery("SELECT SUM(nonexistent) FROM t", LineitemSchema());
  EXPECT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kNotFound);
}

TEST(BindTest, RejectsUngroupedPlainColumn) {
  auto query = ParseQuery("SELECT l_returnflag, SUM(l_quantity) FROM t",
                          LineitemSchema());
  EXPECT_FALSE(query.ok());
  EXPECT_NE(query.status().message().find("GROUP BY"), std::string::npos);
}

TEST(BindTest, RejectsUnselectedGroupColumn) {
  auto query = ParseQuery(
      "SELECT SUM(l_quantity) FROM t GROUP BY l_returnflag",
      LineitemSchema());
  EXPECT_FALSE(query.ok());
}

TEST(BindTest, RejectsNoAggregates) {
  auto query = ParseQuery(
      "SELECT l_returnflag FROM t GROUP BY l_returnflag", LineitemSchema());
  EXPECT_FALSE(query.ok());
}

TEST(BindTest, RejectsStringComparisonTypeMismatch) {
  Schema schema({Field{"name", DataType::kString},
                 Field{"v", DataType::kDouble}});
  EXPECT_FALSE(
      ParseQuery("SELECT SUM(v) FROM t WHERE name = 5", schema).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT SUM(v) FROM t WHERE v = 'x'", schema).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT SUM(v) FROM t WHERE name < 'x'", schema).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT SUM(v) FROM t WHERE name BETWEEN 'a' AND 'b'",
                 schema)
          .ok());
  EXPECT_TRUE(
      ParseQuery("SELECT SUM(v) FROM t WHERE name = 'x'", schema).ok());
}

TEST(BindTest, RejectsAggregateOnString) {
  Schema schema({Field{"name", DataType::kString},
                 Field{"v", DataType::kDouble}});
  EXPECT_FALSE(ParseQuery("SELECT SUM(name) FROM t", schema).ok());
}

TEST(BindTest, BoundQueryExecutesCorrectly) {
  Schema schema({Field{"g", DataType::kInt64},
                 Field{"v", DataType::kDouble}});
  Table t{schema};
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(10.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(20.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{2}), Value(30.0)}).ok());

  auto query = ParseQuery(
      "SELECT g, SUM(v), AVG(v) FROM t WHERE v <= 25 GROUP BY g", schema);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = ExecuteExact(t, *query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_groups(), 1u);  // g=2 filtered out.
  const auto g1 = result->Find({Value(int64_t{1})});
  ASSERT_TRUE(g1.has_value());
  EXPECT_DOUBLE_EQ(g1->estimates[0], 30.0);
  EXPECT_DOUBLE_EQ(g1->estimates[1], 15.0);
}

TEST(BindTest, AllComparisonOperatorsWork) {
  Schema schema({Field{"v", DataType::kDouble}});
  Table t{schema};
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<double>(i))}).ok());
  }
  struct Case {
    const char* sql;
    double expected_count;
  };
  const Case cases[] = {
      {"SELECT COUNT(*) FROM t WHERE v = 3", 1},
      {"SELECT COUNT(*) FROM t WHERE v <> 3", 4},
      {"SELECT COUNT(*) FROM t WHERE v < 3", 2},
      {"SELECT COUNT(*) FROM t WHERE v <= 3", 3},
      {"SELECT COUNT(*) FROM t WHERE v > 3", 2},
      {"SELECT COUNT(*) FROM t WHERE v >= 3", 3},
      {"SELECT COUNT(*) FROM t WHERE v BETWEEN 2 AND 4", 3},
  };
  for (const Case& c : cases) {
    auto query = ParseQuery(c.sql, schema);
    ASSERT_TRUE(query.ok()) << c.sql;
    auto result = ExecuteExact(t, *query);
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result->rows()[0].estimates[0], c.expected_count)
        << c.sql;
  }
}

}  // namespace
}  // namespace congress::sql
