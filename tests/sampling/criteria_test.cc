#include "sampling/criteria.h"

#include <gtest/gtest.h>

namespace congress {
namespace {

/// Two groups: "tight" has near-constant values, "wild" spans [0, 100].
Table MakeDispersionTable() {
  Table t{Schema({Field{"g", DataType::kString},
                  Field{"v", DataType::kDouble}})};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        t.AppendRow({Value("tight"), Value(50.0 + 0.01 * (i % 2))}).ok());
    EXPECT_TRUE(
        t.AppendRow({Value("wild"), Value(static_cast<double>(i))}).ok());
  }
  return t;
}

TEST(DispersionTest, StdDevWeightsFavorWildGroup) {
  Table t = MakeDispersionTable();
  auto census = GroupCensus::Build(t, {0});
  ASSERT_TRUE(census.ok());
  const GroupStatistics& stats = census->stats;
  auto weights = DispersionWeightVector(t, *census, 1,
                                        VarianceCriterion::kStdDev);
  ASSERT_TRUE(weights.ok());
  auto tight = stats.IndexOf({Value("tight")});
  auto wild = stats.IndexOf({Value("wild")});
  ASSERT_TRUE(tight.ok() && wild.ok());
  EXPECT_GT((*weights)[*wild], 100.0 * (*weights)[*tight]);
}

TEST(DispersionTest, NeymanScalesByGroupSize) {
  Table t = MakeDispersionTable();
  auto census = GroupCensus::Build(t, {0});
  ASSERT_TRUE(census.ok());
  const GroupStatistics& stats = census->stats;
  auto stddev = DispersionWeightVector(t, *census, 1,
                                       VarianceCriterion::kStdDev);
  auto neyman = DispersionWeightVector(t, *census, 1,
                                       VarianceCriterion::kNeyman);
  ASSERT_TRUE(stddev.ok() && neyman.ok());
  // Equal group sizes (100 each): Neyman = 100 * stddev.
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    EXPECT_NEAR((*neyman)[i], 100.0 * (*stddev)[i], 1e-9);
  }
}

TEST(DispersionTest, RangeCriterion) {
  Table t = MakeDispersionTable();
  auto census = GroupCensus::Build(t, {0});
  ASSERT_TRUE(census.ok());
  const GroupStatistics& stats = census->stats;
  auto weights =
      DispersionWeightVector(t, *census, 1, VarianceCriterion::kRange);
  ASSERT_TRUE(weights.ok());
  auto tight = stats.IndexOf({Value("tight")});
  auto wild = stats.IndexOf({Value("wild")});
  ASSERT_TRUE(tight.ok() && wild.ok());
  EXPECT_NEAR((*weights)[*wild], 99.0, 1e-9);
  EXPECT_NEAR((*weights)[*tight], 0.01, 1e-9);
}

TEST(DispersionTest, SingletonGroupGetsZero) {
  Table t{Schema({Field{"g", DataType::kString},
                  Field{"v", DataType::kDouble}})};
  ASSERT_TRUE(t.AppendRow({Value("solo"), Value(7.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("pair"), Value(1.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("pair"), Value(9.0)}).ok());
  auto census = GroupCensus::Build(t, {0});
  ASSERT_TRUE(census.ok());
  const GroupStatistics& stats = census->stats;
  auto weights = DispersionWeightVector(t, *census, 1,
                                        VarianceCriterion::kStdDev);
  ASSERT_TRUE(weights.ok());
  auto solo = stats.IndexOf({Value("solo")});
  ASSERT_TRUE(solo.ok());
  EXPECT_DOUBLE_EQ((*weights)[*solo], 0.0);
}

TEST(DispersionTest, Validation) {
  Table t = MakeDispersionTable();
  auto census = GroupCensus::Build(t, {0});
  ASSERT_TRUE(census.ok());
  EXPECT_FALSE(
      DispersionWeightVector(t, *census, 9, VarianceCriterion::kStdDev).ok());
  EXPECT_FALSE(
      DispersionWeightVector(t, *census, 0, VarianceCriterion::kStdDev)
          .ok());  // String column.
  // A census of another table is refused before any row is read.
  Table shorter = t.CloneEmpty();
  ASSERT_TRUE(shorter.AppendRow({Value("tight"), Value(1.0)}).ok());
  EXPECT_FALSE(
      DispersionWeightVector(shorter, *census, 1, VarianceCriterion::kStdDev)
          .ok());
}

GroupStatistics DateStats() {
  // 8 groups over one "date" attribute 10..80, equal sizes.
  std::vector<std::pair<GroupKey, uint64_t>> counts;
  for (int d = 1; d <= 8; ++d) {
    counts.push_back({GroupKey{Value(static_cast<int64_t>(10 * d))}, 100});
  }
  auto stats = GroupStatistics::FromCounts(std::move(counts));
  EXPECT_TRUE(stats.ok());
  return std::move(stats).value();
}

TEST(RangeDecayTest, NewestBucketWeighsMost) {
  GroupStatistics stats = DateStats();
  auto weights = RangeDecayWeightVector(stats, 0, 4, 2.0);
  ASSERT_TRUE(weights.ok());
  // Buckets of 2 groups each; weights n_g * 2^bucket = 100*{1,1,2,2,4,4,8,8}.
  std::vector<double> expected = {100, 100, 200, 200, 400, 400, 800, 800};
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    EXPECT_NEAR((*weights)[i], expected[i], 1e-9) << i;
  }
}

TEST(RangeDecayTest, DecayBelowOneFavorsOldest) {
  GroupStatistics stats = DateStats();
  auto weights = RangeDecayWeightVector(stats, 0, 8, 0.5);
  ASSERT_TRUE(weights.ok());
  EXPECT_GT((*weights)[0], (*weights)[7]);
}

TEST(RangeDecayTest, Validation) {
  GroupStatistics stats = DateStats();
  EXPECT_FALSE(RangeDecayWeightVector(stats, 5, 4, 2.0).ok());
  EXPECT_FALSE(RangeDecayWeightVector(stats, 0, 0, 2.0).ok());
  EXPECT_FALSE(RangeDecayWeightVector(stats, 0, 4, 0.0).ok());
}

TEST(CriteriaAllocationTest, NoExtrasEqualsCongress) {
  GroupStatistics stats = DateStats();
  auto with = AllocateCongressWithCriteria(stats, 200.0, {});
  ASSERT_TRUE(with.ok());
  Allocation plain = AllocateCongress(stats, 200.0);
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    EXPECT_NEAR(with->expected_sizes[i], plain.expected_sizes[i], 1e-9);
  }
}

TEST(CriteriaAllocationTest, ExtraCriterionShiftsSpace) {
  GroupStatistics stats = DateStats();
  auto decay = RangeDecayWeightVector(stats, 0, 4, 4.0);
  ASSERT_TRUE(decay.ok());
  auto alloc = AllocateCongressWithCriteria(stats, 200.0, {*decay});
  ASSERT_TRUE(alloc.ok());
  EXPECT_NEAR(alloc->Total(), 200.0, 1e-6);
  // The newest groups get more than the oldest.
  EXPECT_GT(alloc->expected_sizes[7], alloc->expected_sizes[0]);
  // But the Congress floor still protects the oldest: it keeps at least
  // its scaled Senate share.
  EXPECT_GT(alloc->expected_sizes[0],
            alloc->scale_down_factor * 200.0 / 8.0 - 1e-9);
}

TEST(CriteriaAllocationTest, MisalignedCriterionRejected) {
  GroupStatistics stats = DateStats();
  EXPECT_FALSE(
      AllocateCongressWithCriteria(stats, 200.0, {{1.0, 2.0}}).ok());
}

}  // namespace
}  // namespace congress
