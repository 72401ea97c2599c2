#include "storage/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace congress {
namespace {

Table MakeTable() {
  Table t{Schema({Field{"k", DataType::kInt64},
                  Field{"tag", DataType::kString},
                  Field{"v", DataType::kDouble}})};
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value("a"), Value(1.5)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{2}), Value("b"), Value(2.5)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{3}), Value("a"), Value(3.5)}).ok());
  return t;
}

TEST(TableTest, AppendAndCount) {
  Table t = MakeTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 3u);
}

TEST(TableTest, GetValue) {
  Table t = MakeTable();
  EXPECT_EQ(t.GetValue(1, 0), Value(int64_t{2}));
  EXPECT_EQ(t.GetValue(2, 1), Value("a"));
  EXPECT_EQ(t.GetValue(0, 2), Value(1.5));
}

TEST(TableTest, AppendRowArityMismatch) {
  Table t = MakeTable();
  Status st = t.AppendRow({Value(int64_t{1})});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 3u);  // Unchanged.
}

TEST(TableTest, AppendRowTypeMismatch) {
  Table t = MakeTable();
  Status st = t.AppendRow({Value("wrong"), Value("b"), Value(1.0)});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("k"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST(TableTest, TypedColumnAccess) {
  Table t = MakeTable();
  EXPECT_EQ(t.Int64Column(0), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(t.StringColumn(1), (std::vector<std::string>{"a", "b", "a"}));
  EXPECT_EQ(t.DoubleColumn(2), (std::vector<double>{1.5, 2.5, 3.5}));
}

TEST(TableTest, NumericAtWidens) {
  Table t = MakeTable();
  EXPECT_DOUBLE_EQ(t.NumericAt(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.NumericAt(0, 2), 1.5);
}

TEST(TableTest, KeyForRow) {
  Table t = MakeTable();
  GroupKey key = t.KeyForRow(1, {1, 0});
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0], Value("b"));
  EXPECT_EQ(key[1], Value(int64_t{2}));
}

TEST(TableTest, AppendRowFromCopiesCells) {
  Table t = MakeTable();
  Table u = t.CloneEmpty();
  u.AppendRowFrom(t, 2);
  EXPECT_EQ(u.num_rows(), 1u);
  EXPECT_EQ(u.GetValue(0, 0), Value(int64_t{3}));
  EXPECT_EQ(u.GetValue(0, 1), Value("a"));
}

TEST(TableTest, CloneEmptyPreservesSchema) {
  Table t = MakeTable();
  Table u = t.CloneEmpty();
  EXPECT_EQ(u.num_rows(), 0u);
  EXPECT_EQ(u.schema(), t.schema());
}

TEST(TableTest, MutableColumns) {
  Table t = MakeTable();
  t.MutableDoubleColumn(2)[0] = 9.0;
  EXPECT_DOUBLE_EQ(t.DoubleColumn(2)[0], 9.0);
  t.MutableInt64Column(0)[1] = -2;
  EXPECT_EQ(t.Int64Column(0)[1], -2);
}

TEST(TableTest, ReserveDoesNotChangeContents) {
  Table t = MakeTable();
  t.Reserve(1000);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.GetValue(0, 0), Value(int64_t{1}));
}

TEST(TableTest, ToStringMentionsRows) {
  Table t = MakeTable();
  std::string s = t.ToString();
  EXPECT_NE(s.find("3 rows"), std::string::npos);
  EXPECT_NE(s.find("a"), std::string::npos);
}

TEST(TableTest, ToStringTruncates) {
  Table t = MakeTable();
  std::string s = t.ToString(1);
  EXPECT_NE(s.find("2 more"), std::string::npos);
}

TEST(TableTest, EmptyTable) {
  Table t{Schema({Field{"x", DataType::kInt64}})};
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_TRUE(t.Int64Column(0).empty());
}

TEST(RowKeyLessTest, MatchesKeyLessOnEveryPair) {
  // Columns: small int64s (packable), int64 extremes (too wide to pack
  // together), doubles with NaN and both zeros, and strings.
  Table t{Schema({Field{"a", DataType::kInt64}, Field{"b", DataType::kInt64},
                  Field{"wide", DataType::kInt64},
                  Field{"d", DataType::kDouble},
                  Field{"s", DataType::kString}})};
  const int64_t wides[] = {INT64_MIN, -1, 0, INT64_MAX};
  const double doubles[] = {-0.0, 0.0, std::nan(""), -2.5, 1.0};
  const char* strings[] = {"b", "a", "ab"};
  for (int row = 0; row < 40; ++row) {
    ASSERT_TRUE(t.AppendRow({Value(int64_t{row % 3 - 1}),
                             Value(int64_t{(row * 7) % 5}),
                             Value(wides[row % 4]), Value(doubles[row % 5]),
                             Value(strings[row % 3])})
                    .ok());
  }
  const std::vector<uint32_t> rows = {39, 0, 7, 12, 3, 25, 18, 30, 1, 22};
  for (const std::vector<size_t>& cols : std::vector<std::vector<size_t>>{
           {}, {0}, {1, 0}, {2}, {0, 2}, {2, 2}, {3}, {3, 0}, {4}, {4, 3, 1}}) {
    const RowKeyLess less(t, cols, rows);
    for (uint32_t a = 0; a < rows.size(); ++a) {
      for (uint32_t b = 0; b < rows.size(); ++b) {
        EXPECT_EQ(less(a, b), KeyLess(t.KeyForRow(rows[a], cols),
                                      t.KeyForRow(rows[b], cols)))
            << cols.size() << " columns, rows " << rows[a] << ", " << rows[b];
      }
    }
  }
}

}  // namespace
}  // namespace congress
