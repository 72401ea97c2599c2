#include "storage/group_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/zipf.h"

namespace congress {
namespace {

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

TEST(GroupIndexTest, IdsRoundTripToExactKeys) {
  Table t = MakeTable();
  auto index = GroupIndex::Build(t, {0, 1});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_rows(), t.num_rows());
  EXPECT_EQ(index->num_groups(), 3u);
  for (size_t row = 0; row < t.num_rows(); ++row) {
    GroupKey expected = t.KeyForRow(row, {0, 1});
    EXPECT_EQ(index->KeyOf(index->row_ids()[row]), expected) << "row " << row;
  }
}

TEST(GroupIndexTest, FirstOccurrenceOrderAndCounts) {
  Table t = MakeTable();
  auto index = GroupIndex::Build(t, {0, 1});
  ASSERT_TRUE(index.ok());
  // Groups in the order their first row appears: (A,1), (A,2), (B,1).
  ASSERT_EQ(index->keys().size(), 3u);
  EXPECT_EQ(index->keys()[0], GroupKey({Value("A"), Value(int64_t{1})}));
  EXPECT_EQ(index->keys()[1], GroupKey({Value("A"), Value(int64_t{2})}));
  EXPECT_EQ(index->keys()[2], GroupKey({Value("B"), Value(int64_t{1})}));
  EXPECT_EQ(index->counts(), (std::vector<uint64_t>{2, 2, 2}));
  EXPECT_EQ(index->total_rows(), 6u);
}

TEST(GroupIndexTest, IdOfLooksUpKeys) {
  Table t = MakeTable();
  auto index = GroupIndex::Build(t, {0, 1});
  ASSERT_TRUE(index.ok());
  auto id = index->IdOf({Value("B"), Value(int64_t{1})});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 2u);
  EXPECT_FALSE(index->IdOf({Value("C"), Value(int64_t{1})}).ok());
}

TEST(GroupIndexTest, GroupRowsAreAscendingPerGroup) {
  Table t = MakeTable();
  auto index = GroupIndex::Build(t, {0, 1});
  ASSERT_TRUE(index.ok());
  GroupIndex::RowLists lists = index->GroupRows();
  ASSERT_EQ(lists.offsets.size(), index->num_groups() + 1);
  EXPECT_EQ(lists.rows.size(), t.num_rows());
  for (size_t g = 0; g < index->num_groups(); ++g) {
    for (uint64_t i = lists.offsets[g]; i < lists.offsets[g + 1]; ++i) {
      EXPECT_EQ(index->row_ids()[lists.rows[i]], g);
      if (i > lists.offsets[g]) {
        EXPECT_LT(lists.rows[i - 1], lists.rows[i]);
      }
    }
  }
}

TEST(GroupIndexTest, EmptyTable) {
  Table t{Schema({Field{"g", DataType::kInt64}})};
  auto index = GroupIndex::Build(t, {0});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_groups(), 0u);
  EXPECT_EQ(index->num_rows(), 0u);
  EXPECT_TRUE(index->GroupRows().rows.empty());
}

TEST(GroupIndexTest, NoColumnsYieldsSingleGroup) {
  Table t = MakeTable();
  auto index = GroupIndex::Build(t, {});
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->num_groups(), 1u);
  EXPECT_TRUE(index->keys()[0].empty());
  for (uint32_t id : index->row_ids()) EXPECT_EQ(id, 0u);
}

TEST(GroupIndexTest, ColumnOutOfRangeFails) {
  Table t = MakeTable();
  EXPECT_FALSE(GroupIndex::Build(t, {7}).ok());
}

TEST(GroupIndexTest, ParallelBuildMatchesSerial) {
  // A table large enough to span several morsels, with enough groups for
  // morsel-local dictionaries to disagree before the merge.
  Table t{Schema({Field{"g", DataType::kInt64}, Field{"v", DataType::kDouble}})};
  Random rng(7);
  ZipfDistribution zipf(50, 1.1);
  for (size_t i = 0; i < 20'000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(zipf.Sample(&rng))),
                             Value(static_cast<double>(i))})
                    .ok());
  }
  ExecutorOptions serial;
  serial.morsel_size = 1024;
  auto reference = GroupIndex::Build(t, {0}, serial);
  ASSERT_TRUE(reference.ok());
  for (size_t threads : {2u, 4u, 8u}) {
    ExecutorOptions options;
    options.num_threads = threads;
    options.morsel_size = 1024;
    auto index = GroupIndex::Build(t, {0}, options);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(index->keys(), reference->keys()) << threads << " threads";
    EXPECT_EQ(index->row_ids(), reference->row_ids()) << threads << " threads";
    EXPECT_EQ(index->counts(), reference->counts()) << threads << " threads";
  }
}

TEST(GroupIndexTest, Int64FastPathMatchesCompositePath) {
  // Grouping by {0} takes the single-int64 fast path; grouping by {0, 0}
  // forces the composite-key path over the identical partition. Id
  // assignment is first-occurrence order in both, so row ids and counts
  // must coincide exactly.
  Table t{Schema({Field{"g", DataType::kInt64}, Field{"v", DataType::kDouble}})};
  Random rng(11);
  ZipfDistribution zipf(40, 0.9);
  for (size_t i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(zipf.Sample(&rng))),
                             Value(static_cast<double>(i))})
                    .ok());
  }
  ExecutorOptions options;
  options.num_threads = 4;
  options.morsel_size = 1024;
  auto fast = GroupIndex::Build(t, {0}, options);
  auto composite = GroupIndex::Build(t, {0, 0}, options);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(composite.ok());
  EXPECT_EQ(fast->row_ids(), composite->row_ids());
  EXPECT_EQ(fast->counts(), composite->counts());
  // IdOf probes the flat lookup table; round-trip every key.
  for (size_t g = 0; g < fast->num_groups(); ++g) {
    auto id = fast->IdOf(fast->keys()[g]);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<uint32_t>(g));
  }
}

TEST(GroupIndexTest, NegativeZeroFoldsIntoPositiveZeroGroup) {
  Table t{Schema({Field{"g", DataType::kDouble}})};
  ASSERT_TRUE(t.AppendRow({Value(0.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(-0.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1.0)}).ok());
  auto index = GroupIndex::Build(t, {0});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_groups(), 2u);
  EXPECT_EQ(index->row_ids()[0], index->row_ids()[1]);
}

TEST(GroupIndexTest, ProjectionMatchesDirectBuild) {
  // Columns: i (int64), d (double), s (string). The first zero in `d` is
  // -0.0, so the projected (d) key must keep that sign, as a direct
  // Build's first-occurrence representative does.
  Table t{Schema({Field{"i", DataType::kInt64},
                  Field{"d", DataType::kDouble},
                  Field{"s", DataType::kString}})};
  Random rng(7);
  const double doubles[] = {-0.0, 0.0, 1.5, -2.25};
  const char* strings[] = {"x", "y", "z"};
  for (int row = 0; row < 3000; ++row) {
    const int64_t i = rng.UniformRange(0, 9);
    const double d = doubles[row == 0 ? 0 : rng.UniformRange(0, 3)];
    const char* s = strings[rng.UniformRange(0, 2)];
    ASSERT_TRUE(t.AppendRow({Value(i), Value(d), Value(s)}).ok());
  }
  auto fine = GroupIndex::Build(t, {2, 1, 0});
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(fine->columns(), (std::vector<size_t>{2, 1, 0}));
  for (const std::vector<size_t>& cols : std::vector<std::vector<size_t>>{
           {}, {0}, {1}, {0, 1}, {1, 0}, {0, 2}, {2, 1, 0}, {0, 1, 2}}) {
    ASSERT_TRUE(fine->Covers(cols));
    auto direct = GroupIndex::Build(t, cols);
    auto projected = fine->Project(cols);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(projected.ok());
    ASSERT_EQ(projected->keys.size(), direct->num_groups());
    for (size_t g = 0; g < direct->num_groups(); ++g) {
      const GroupKey& a = projected->keys[g];
      const GroupKey& b = direct->keys()[g];
      ASSERT_EQ(a, b) << "group " << g;
      for (size_t k = 0; k < a.size(); ++k) {
        if (a[k].type() == DataType::kDouble) {
          EXPECT_EQ(std::signbit(a[k].AsDouble()),
                    std::signbit(b[k].AsDouble()))
              << "group " << g;
        }
      }
    }
    for (size_t row = 0; row < t.num_rows(); ++row) {
      ASSERT_EQ(projected->group_of[fine->row_ids()[row]],
                direct->row_ids()[row])
          << "row " << row;
    }
  }
  EXPECT_FALSE(fine->Covers({0, 3}));
  EXPECT_FALSE(fine->Project({3}).ok());
}

/// Requires first_rows()[g] to be the smallest row of group g.
void ExpectFirstRows(const GroupIndex& index, const std::string& label) {
  ASSERT_EQ(index.first_rows().size(), index.num_groups()) << label;
  std::vector<uint32_t> expected(index.num_groups(), UINT32_MAX);
  for (size_t row = index.num_rows(); row-- > 0;) {
    expected[index.row_ids()[row]] = static_cast<uint32_t>(row);
  }
  EXPECT_EQ(index.first_rows(), expected) << label;
}

/// Columns: i (int64), d (double), s (string), zipf-skewed so morsels
/// see their keys in different orders.
Table FirstRowTable() {
  Table t{Schema({Field{"i", DataType::kInt64},
                  Field{"d", DataType::kDouble},
                  Field{"s", DataType::kString}})};
  Random rng(5);
  ZipfDistribution zipf(60, 0.9);
  const double doubles[] = {-0.0, 0.0, 1.5, -2.25};
  const char* strings[] = {"w", "x", "y", "z"};
  for (int row = 0; row < 5000; ++row) {
    const int64_t i = static_cast<int64_t>(zipf.Sample(&rng));
    const double d = doubles[rng.UniformRange(0, 3)];
    const char* s = strings[rng.UniformRange(0, 3)];
    EXPECT_TRUE(t.AppendRow({Value(i), Value(d), Value(s)}).ok());
  }
  return t;
}

TEST(GroupIndexTest, FirstRowsOnEveryBuildPath) {
  const Table t = FirstRowTable();
  // {} no-group-by, {2} string dictionary, {0} single int64, and
  // composite keys; morsels of 512 rows force multi-morsel merges.
  for (const std::vector<size_t>& cols : std::vector<std::vector<size_t>>{
           {}, {2}, {0}, {1}, {0, 1}, {2, 1, 0}}) {
    for (size_t threads : {1u, 4u}) {
      ExecutorOptions options;
      options.num_threads = threads;
      options.morsel_size = 512;
      auto index = GroupIndex::Build(t, cols, options);
      ASSERT_TRUE(index.ok());
      ExpectFirstRows(*index, std::to_string(cols.size()) + " columns @" +
                                  std::to_string(threads) + " threads");
    }
  }
  auto empty = GroupIndex::Build(t.CloneEmpty(), {0});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->first_rows().empty());
}

TEST(GroupIndexTest, ProjectionFirstRowsMatchDirectBuild) {
  const Table t = FirstRowTable();
  ExecutorOptions options;
  options.num_threads = 4;
  options.morsel_size = 512;
  auto fine = GroupIndex::Build(t, {2, 1, 0}, options);
  ASSERT_TRUE(fine.ok());
  for (const std::vector<size_t>& cols : std::vector<std::vector<size_t>>{
           {}, {0}, {1}, {2}, {0, 1}, {2, 0}, {0, 1, 2}}) {
    auto direct = GroupIndex::Build(t, cols, options);
    auto projected = fine->Project(cols);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(projected.ok());
    ASSERT_EQ(projected->first_rows.size(), projected->keys.size());
    for (size_t p = 0; p < projected->keys.size(); ++p) {
      auto id = direct->IdOf(projected->keys[p]);
      ASSERT_TRUE(id.ok());
      EXPECT_EQ(projected->first_rows[p], direct->first_rows()[*id])
          << "projected group " << p;
    }
  }
}

TEST(GroupIndexTest, BalancedGroupChunksCoverAllGroups) {
  // Offsets for groups of sizes 100, 1, 1, 50, 200, 3.
  std::vector<uint64_t> offsets = {0, 100, 101, 102, 152, 352, 355};
  auto chunks = BalancedGroupChunks(offsets, 100);
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().first, 0u);
  EXPECT_EQ(chunks.back().second, 6u);
  for (size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);  // Contiguous.
    EXPECT_LT(chunks[i].first, chunks[i].second);      // Non-empty.
  }
}

}  // namespace
}  // namespace congress
