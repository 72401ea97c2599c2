#include "engine/query.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

namespace congress {
namespace {

TEST(GroupByQueryTest, ToStringNoGroupBy) {
  GroupByQuery q;
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  std::string s = q.ToString();
  EXPECT_NE(s.find("SELECT"), std::string::npos);
  EXPECT_NE(s.find("SUM(col2)"), std::string::npos);
  EXPECT_EQ(s.find("GROUP BY"), std::string::npos);
  EXPECT_EQ(s.find("WHERE"), std::string::npos);
}

TEST(GroupByQueryTest, ToStringFullQuery) {
  GroupByQuery q;
  q.group_columns = {0, 1};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2},
                  AggregateSpec{AggregateKind::kCount, 0}};
  q.predicate = MakeRangePredicate(3, 1.0, 2.0);
  std::string s = q.ToString();
  EXPECT_NE(s.find("GROUP BY col0, col1"), std::string::npos);
  EXPECT_NE(s.find("WHERE"), std::string::npos);
  EXPECT_NE(s.find("COUNT(*)"), std::string::npos);
}

TEST(GroupByQueryTest, HasPredicate) {
  GroupByQuery q;
  EXPECT_FALSE(q.HasPredicate());
  q.predicate = MakeTruePredicate();
  EXPECT_TRUE(q.HasPredicate());
}

TEST(QueryResultTest, AddAndFind) {
  QueryResult r;
  r.Add({Value(int64_t{1})}, {10.0, 20.0});
  r.Add({Value(int64_t{2})}, {30.0, 40.0});
  EXPECT_EQ(r.num_groups(), 2u);
  const GroupResult* row = r.Find({Value(int64_t{2})});
  ASSERT_NE(row, nullptr);
  EXPECT_DOUBLE_EQ(row->aggregates[1], 40.0);
  EXPECT_EQ(r.Find({Value(int64_t{3})}), nullptr);
}

TEST(QueryResultTest, SortByKeyOrdersAndReindexes) {
  QueryResult r;
  r.Add({Value(int64_t{3})}, {3.0});
  r.Add({Value(int64_t{1})}, {1.0});
  r.Add({Value(int64_t{2})}, {2.0});
  r.SortByKey();
  EXPECT_EQ(r.rows()[0].key[0], Value(int64_t{1}));
  EXPECT_EQ(r.rows()[2].key[0], Value(int64_t{3}));
  // Index still valid after sorting.
  const GroupResult* row = r.Find({Value(int64_t{3})});
  ASSERT_NE(row, nullptr);
  EXPECT_DOUBLE_EQ(row->aggregates[0], 3.0);
}

TEST(QueryResultTest, EmptyKeySingleton) {
  QueryResult r;
  r.Add({}, {42.0});
  const GroupResult* row = r.Find(GroupKey{});
  ASSERT_NE(row, nullptr);
  EXPECT_DOUBLE_EQ(row->aggregates[0], 42.0);
}

TEST(QueryResultTest, ToStringTruncates) {
  QueryResult r;
  for (int i = 0; i < 30; ++i) {
    r.Add({Value(static_cast<int64_t>(i))}, {1.0});
  }
  std::string s = r.ToString(5);
  EXPECT_NE(s.find("25 more groups"), std::string::npos);
}

TEST(QueryResultTest, StringKeys) {
  QueryResult r;
  r.Add({Value("alpha"), Value(int64_t{1})}, {5.0});
  const GroupResult* row = r.Find({Value("alpha"), Value(int64_t{1})});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(r.Find({Value("alpha"), Value(int64_t{2})}), nullptr);
}

/// Find must return what a hash index over the rows, built in row order
/// with first-insert-wins, returned.
void ExpectFindMatchesHashIndex(const QueryResult& result,
                                const std::vector<GroupKey>& probes) {
  std::unordered_map<GroupKey, size_t, GroupKeyHash> index;
  for (size_t i = 0; i < result.rows().size(); ++i) {
    index.emplace(result.rows()[i].key, i);
  }
  for (const GroupKey& probe : probes) {
    auto it = index.find(probe);
    const GroupResult* want =
        it == index.end() ? nullptr : &result.rows()[it->second];
    EXPECT_EQ(result.Find(probe), want) << GroupKeyToString(probe);
  }
}

TEST(QueryResultTest, FindMatchesHashIndexSemantics) {
  const double nan = std::nan("");
  const std::vector<GroupKey> probes = {
      {Value(int64_t{1})}, {Value(int64_t{2})}, {Value(int64_t{3})},
      {Value(0.0)},        {Value(-0.0)},       {Value(nan)},
      {Value("z")},        {Value(int64_t{7})}};
  QueryResult r;
  r.Add({Value(int64_t{3})}, {3.0});
  r.Add({Value(nan)}, {8.0});
  r.Add({Value(int64_t{1})}, {1.0});
  r.Add({Value(int64_t{3})}, {30.0});  // Duplicate key: the first wins.
  r.Add({Value(0.0)}, {4.0});
  r.Add({Value(-0.0)}, {5.0});  // Equal to 0.0.
  r.Add({Value("z")}, {6.0});
  ExpectFindMatchesHashIndex(r, probes);  // Unsorted adds.
  EXPECT_DOUBLE_EQ(r.Find({Value(int64_t{3})})->aggregates[0], 3.0);
  EXPECT_EQ(r.Find({Value(nan)}), nullptr);
  r.SortByKey();
  ExpectFindMatchesHashIndex(r, probes);
  r.FilterHaving({HavingCondition{0, CompareOp::kGe, 4.0}});
  ExpectFindMatchesHashIndex(r, probes);

  // Key-ordered adds (the engines' output) binary-search.
  QueryResult sorted;
  for (int64_t k = 0; k < 40; k += 3) sorted.Add({Value(k)}, {1.0 * k});
  std::vector<GroupKey> int_probes;
  for (int64_t k = -2; k < 42; ++k) int_probes.push_back({Value(k)});
  ExpectFindMatchesHashIndex(sorted, int_probes);
  sorted.FilterHaving({HavingCondition{0, CompareOp::kLt, 20.0}});
  ExpectFindMatchesHashIndex(sorted, int_probes);
}

TEST(QueryResultTest, FilterHavingKeepsOrder) {
  QueryResult r;
  r.Add({Value(int64_t{4})}, {4.0});
  r.Add({Value(int64_t{2})}, {2.0});
  r.Add({Value(int64_t{9})}, {9.0});
  r.Add({Value(int64_t{1})}, {1.0});
  r.FilterHaving({HavingCondition{0, CompareOp::kGt, 1.5}});
  ASSERT_EQ(r.num_groups(), 3u);
  EXPECT_EQ(r.rows()[0].key[0], Value(int64_t{4}));
  EXPECT_EQ(r.rows()[1].key[0], Value(int64_t{2}));
  EXPECT_EQ(r.rows()[2].key[0], Value(int64_t{9}));
}

}  // namespace
}  // namespace congress
