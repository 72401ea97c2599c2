#include "engine/query.h"

#include <gtest/gtest.h>

#include <algorithm>

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

/// Appends a group with zero-width bounds holding `estimates`.
void AddRow(ApproximateResult* result, const GroupKey& key,
            const std::vector<double>& estimates) {
  std::ranges::copy(estimates,
                    result->Add(key, 0, GroupProvenance::kExact).begin());
}

TEST(ApproximateResultTest, AddAndFind) {
  ApproximateResult r(1, 2);
  AddRow(&r, {Value(int64_t{1})}, {10.0, 20.0});
  AddRow(&r, {Value(int64_t{2})}, {30.0, 40.0});
  EXPECT_EQ(r.num_groups(), 2u);
  const auto row = r.Find({Value(int64_t{2})});
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ(row->estimates[1], 40.0);
  EXPECT_EQ(row->bounds[1], 0.0);
  EXPECT_EQ(row->provenance, GroupProvenance::kExact);
  EXPECT_FALSE(r.Find({Value(int64_t{3})}).has_value());
}

TEST(ApproximateResultTest, EmptyKeySingleton) {
  ApproximateResult r(0, 1);
  AddRow(&r, {}, {42.0});
  const auto row = r.Find(GroupKey{});
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ(row->estimates[0], 42.0);
}

TEST(ApproximateResultTest, ToStringTruncates) {
  ApproximateResult r(1, 1);
  for (int i = 0; i < 30; ++i) {
    AddRow(&r, {Value(static_cast<int64_t>(i))}, {1.0});
  }
  std::string s = r.ToString(5);
  EXPECT_NE(s.find("25 more groups"), std::string::npos);
}

TEST(ApproximateResultTest, StringKeys) {
  ApproximateResult r(2, 1);
  AddRow(&r, {Value("alpha"), Value(int64_t{1})}, {5.0});
  ASSERT_TRUE(r.Find({Value("alpha"), Value(int64_t{1})}).has_value());
  EXPECT_FALSE(r.Find({Value("alpha"), Value(int64_t{2})}).has_value());
}

}  // namespace
}  // namespace congress
