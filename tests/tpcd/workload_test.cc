#include "tpcd/workload.h"

#include <set>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "tpcd/lineitem.h"

namespace congress::tpcd {
namespace {

TEST(WorkloadTest, Qg2Definition) {
  GroupByQuery q = MakeQg2();
  EXPECT_EQ(q.group_columns,
            (std::vector<size_t>{kLReturnFlag, kLLineStatus}));
  ASSERT_EQ(q.aggregates.size(), 2u);
  EXPECT_EQ(q.aggregates[0].kind, AggregateKind::kSum);
  EXPECT_EQ(q.aggregates[0].column, static_cast<size_t>(kLQuantity));
  EXPECT_EQ(q.aggregates[1].column, static_cast<size_t>(kLExtendedPrice));
  EXPECT_EQ(q.predicate, nullptr);
}

TEST(WorkloadTest, Qg3Definition) {
  GroupByQuery q = MakeQg3();
  EXPECT_EQ(q.group_columns,
            (std::vector<size_t>{kLReturnFlag, kLLineStatus, kLShipDate}));
  ASSERT_EQ(q.aggregates.size(), 1u);
  EXPECT_EQ(q.aggregates[0].kind, AggregateKind::kSum);
}

TEST(WorkloadTest, Qg0HasRangePredicateNoGroups) {
  GroupByQuery q = MakeQg0(100, 50);
  EXPECT_TRUE(q.group_columns.empty());
  ASSERT_NE(q.predicate, nullptr);
  std::string s = q.predicate->ToString();
  EXPECT_NE(s.find("BETWEEN"), std::string::npos);
}

TEST(WorkloadTest, Qg0SelectsExpectedRange) {
  LineitemConfig config;
  config.num_tuples = 5000;
  config.num_groups = 8;
  config.seed = 3;
  auto data = GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  GroupByQuery count_query = MakeQg0(1000, 499);
  count_query.aggregates = {AggregateSpec{AggregateKind::kCount, 0}};
  auto result = ExecuteExact(data->table, count_query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_groups(), 1u);
  // l_id is 1..5000 dense, so [1000, 1499] selects exactly 500 tuples.
  EXPECT_DOUBLE_EQ(result->rows()[0].estimates[0], 500.0);
}

TEST(WorkloadTest, Qg0SetSelectivity) {
  Random rng(4);
  auto queries = MakeQg0Set(10000, 0.07, 20, &rng);
  EXPECT_EQ(queries.size(), 20u);
  LineitemConfig config;
  config.num_tuples = 10000;
  config.num_groups = 8;
  config.seed = 5;
  auto data = GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  for (auto& q : queries) {
    GroupByQuery count_query = q;
    count_query.aggregates = {AggregateSpec{AggregateKind::kCount, 0}};
    auto result = ExecuteExact(data->table, count_query);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->num_groups(), 1u);
    // Each query selects ~7% of the table (701 ids, inclusive range).
    EXPECT_NEAR(result->rows()[0].estimates[0], 700.0, 2.0);
  }
}

TEST(WorkloadTest, Qg0SetStartsVary) {
  Random rng(6);
  auto queries = MakeQg0Set(100000, 0.07, 20, &rng);
  std::set<std::string> predicates;
  for (const auto& q : queries) {
    predicates.insert(q.predicate->ToString());
  }
  EXPECT_GT(predicates.size(), 10u);
}

TEST(WorkloadTest, QueriesRunOnGeneratedData) {
  LineitemConfig config;
  config.num_tuples = 9000;
  config.num_groups = 27;
  config.seed = 7;
  auto data = GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  auto r2 = ExecuteExact(data->table, MakeQg2());
  auto r3 = ExecuteExact(data->table, MakeQg3());
  ASSERT_TRUE(r2.ok() && r3.ok());
  EXPECT_EQ(r2->num_groups(), 9u);   // 3 x 3 flag/status combos.
  EXPECT_EQ(r3->num_groups(), 27u);  // Full cross product.
}

}  // namespace
}  // namespace congress::tpcd
