#include "sampling/builder.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

namespace congress {
namespace {

/// Builds a two-grouping-column table with the Figure 5 shape scaled
/// down: (a1,b1)=300, (a1,b2)=300, (a1,b3)=150, (a2,b3)=250.
Table MakeSkewedTable() {
  Table t{Schema({Field{"a", DataType::kString},
                  Field{"b", DataType::kString},
                  Field{"v", DataType::kDouble}})};
  auto fill = [&t](const char* a, const char* b, int count) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(
          t.AppendRow({Value(a), Value(b), Value(static_cast<double>(i))})
              .ok());
    }
  };
  fill("a1", "b1", 300);
  fill("a1", "b2", 300);
  fill("a1", "b3", 150);
  fill("a2", "b3", 250);
  return t;
}

TEST(BuilderTest, SampleSizeMatchesRoundedAllocation) {
  Table t = MakeSkewedTable();
  Random rng(1);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kCongress, 100.0, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->num_rows(), 100u);
  EXPECT_EQ(sample->strata().size(), 4u);
  EXPECT_EQ(sample->total_population(), 1000u);
}

TEST(BuilderTest, PerStratumCountsMatchAllocationExactly) {
  Table t = MakeSkewedTable();
  auto census = GroupCensus::Build(t, {0, 1});
  ASSERT_TRUE(census.ok());
  const GroupStatistics& stats = census->stats;
  Allocation alloc = AllocateSenate(stats, 100.0);
  auto rounded = RoundAllocation(stats, alloc);
  Random rng(2);
  auto sample = BuildStratifiedSample(t, *census, alloc, &rng);
  ASSERT_TRUE(sample.ok());
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    auto idx = sample->StratumIndex(stats.keys()[i]);
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(sample->strata()[*idx].sample_count, rounded[i]);
  }
}

TEST(BuilderTest, SenateGivesEqualCounts) {
  Table t = MakeSkewedTable();
  Random rng(3);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kSenate, 100.0, &rng);
  ASSERT_TRUE(sample.ok());
  for (const Stratum& s : sample->strata()) {
    EXPECT_EQ(s.sample_count, 25u);
  }
}

TEST(BuilderTest, HouseProportionalCounts) {
  Table t = MakeSkewedTable();
  Random rng(4);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kHouse, 100.0, &rng);
  ASSERT_TRUE(sample.ok());
  auto idx = sample->StratumIndex({Value("a1"), Value("b1")});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(sample->strata()[*idx].sample_count, 30u);
  idx = sample->StratumIndex({Value("a1"), Value("b3")});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(sample->strata()[*idx].sample_count, 15u);
}

TEST(BuilderTest, SampledRowsBelongToTheirStratum) {
  Table t = MakeSkewedTable();
  Random rng(5);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kCongress, 80.0, &rng);
  ASSERT_TRUE(sample.ok());
  const Table& rows = sample->rows();
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    const Stratum& s = sample->strata()[sample->row_strata()[r]];
    EXPECT_EQ(rows.GetValue(r, 0), s.key[0]);
    EXPECT_EQ(rows.GetValue(r, 1), s.key[1]);
  }
}

TEST(BuilderTest, WithinStratumSamplingIsUniform) {
  // Build many samples of one 100-tuple group at size 10 and check each
  // tuple's inclusion frequency is ~0.1.
  Table t{Schema({Field{"g", DataType::kString},
                  Field{"id", DataType::kInt64}})};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value("only"), Value(static_cast<int64_t>(i))}).ok());
  }
  std::vector<int> counts(100, 0);
  const int trials = 4000;
  Random rng(6);
  for (int trial = 0; trial < trials; ++trial) {
    auto sample =
        BuildSample(t, {0}, AllocationStrategy::kSenate, 10.0, &rng);
    ASSERT_TRUE(sample.ok());
    for (int64_t id : sample->rows().Int64Column(1)) counts[id]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.1, 0.03);
  }
}

TEST(BuilderTest, FullRateSampleKeepsEverything) {
  Table t = MakeSkewedTable();
  Random rng(7);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kHouse, 1000.0, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->num_rows(), 1000u);
  for (const Stratum& s : sample->strata()) {
    EXPECT_EQ(s.sample_count, s.population);
    EXPECT_DOUBLE_EQ(s.ScaleFactor(), 1.0);
  }
}

TEST(BuilderTest, ValidatesArguments) {
  Table t = MakeSkewedTable();
  Random rng(8);
  EXPECT_FALSE(
      BuildSample(t, {}, AllocationStrategy::kHouse, 10.0, &rng).ok());
  EXPECT_FALSE(
      BuildSample(t, {9}, AllocationStrategy::kHouse, 10.0, &rng).ok());
  EXPECT_FALSE(
      BuildSample(t, {0}, AllocationStrategy::kHouse, 0.0, &rng).ok());
  Table empty{t.CloneEmpty()};
  EXPECT_FALSE(
      BuildSample(empty, {0}, AllocationStrategy::kHouse, 10.0, &rng).ok());
}

TEST(BuilderTest, MisalignedAllocationRejected) {
  Table t = MakeSkewedTable();
  auto census = GroupCensus::Build(t, {0, 1});
  ASSERT_TRUE(census.ok());
  Allocation bad;
  bad.expected_sizes = {1.0, 2.0};  // Wrong arity.
  Random rng(9);
  EXPECT_FALSE(BuildStratifiedSample(t, *census, bad, &rng).ok());
  // A census of another table is refused before any row is read.
  Allocation aligned = AllocateSenate(census->stats, 10.0);
  Table shorter = t.CloneEmpty();
  ASSERT_TRUE(shorter.AppendRow({Value("a1"), Value("b1"), Value(0.0)}).ok());
  EXPECT_FALSE(BuildStratifiedSample(shorter, *census, aligned, &rng).ok());
}

TEST(BuilderTest, NaNGroupingCellRejectedByName) {
  // NaN, both signed zeros and small integers in a stratifying double
  // column: the NaN is refused up front, naming the column, rather than
  // breaking the census sort and failing on an innocent group.
  Table t{Schema(
      {Field{"g", DataType::kDouble}, Field{"v", DataType::kDouble}})};
  const double cells[] = {1.0, -0.0, 2.0, 0.0, std::nan(""), 3.0, 1.0, 0.0};
  for (int rep = 0; rep < 4; ++rep) {
    for (double g : cells) {
      ASSERT_TRUE(t.AppendRow({Value(g), Value(1.0)}).ok());
    }
  }
  auto census = GroupCensus::Build(t, {0});
  ASSERT_FALSE(census.ok());
  EXPECT_EQ(census.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(census.status().message().find("'g'"), std::string::npos)
      << census.status().ToString();
  EXPECT_NE(census.status().message().find("NaN"), std::string::npos);
  Random rng(10);
  EXPECT_FALSE(
      BuildSample(t, {0}, AllocationStrategy::kCongress, 8.0, &rng).ok());

  // Without the NaN the same column stratifies: ±0.0 share one stratum.
  Table clean = t.CloneEmpty();
  for (double g : cells) {
    if (std::isnan(g)) continue;
    ASSERT_TRUE(clean.AppendRow({Value(g), Value(1.0)}).ok());
  }
  auto clean_census = GroupCensus::Build(clean, {0});
  ASSERT_TRUE(clean_census.ok()) << clean_census.status().ToString();
  EXPECT_EQ(clean_census->stats.num_groups(), 4u);  // 0, 1, 2, 3.
}

TEST(BuilderTest, DeterministicGivenSeed) {
  Table t = MakeSkewedTable();
  Random rng1(42);
  Random rng2(42);
  auto s1 = BuildSample(t, {0, 1}, AllocationStrategy::kCongress, 50.0, &rng1);
  auto s2 = BuildSample(t, {0, 1}, AllocationStrategy::kCongress, 50.0, &rng2);
  ASSERT_TRUE(s1.ok() && s2.ok());
  ASSERT_EQ(s1->num_rows(), s2->num_rows());
  for (size_t r = 0; r < s1->num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(s1->rows().DoubleColumn(2)[r],
                     s2->rows().DoubleColumn(2)[r]);
  }
}

}  // namespace
}  // namespace congress
