#include "sampling/allocation.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/zipf.h"

namespace congress {
namespace {

GroupKey Key(const char* a, const char* b) {
  return GroupKey{Value(a), Value(b)};
}

/// The paper's Figure 5 relation: grouping attributes A, B with groups
/// (a1,b1)=3000, (a1,b2)=3000, (a1,b3)=1500, (a2,b3)=2500 and X=100.
GroupStatistics Figure5Stats() {
  auto stats = GroupStatistics::FromCounts({{Key("a1", "b1"), 3000},
                                            {Key("a1", "b2"), 3000},
                                            {Key("a1", "b3"), 1500},
                                            {Key("a2", "b3"), 2500}});
  EXPECT_TRUE(stats.ok());
  return std::move(stats).value();
}

double SizeOf(const GroupStatistics& stats, const Allocation& alloc,
              const GroupKey& key) {
  auto idx = stats.IndexOf(key);
  EXPECT_TRUE(idx.ok());
  return alloc.expected_sizes[*idx];
}

TEST(GroupStatisticsTest, ComputeFromTable) {
  Table t{Schema({Field{"g", DataType::kString},
                  Field{"v", DataType::kDouble}})};
  ASSERT_TRUE(t.AppendRow({Value("x"), Value(1.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("x"), Value(2.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("y"), Value(3.0)}).ok());
  GroupStatistics stats = GroupStatistics::Compute(t, {0});
  EXPECT_EQ(stats.num_groups(), 2u);
  EXPECT_EQ(stats.total_tuples(), 3u);
  auto idx = stats.IndexOf({Value("x")});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(stats.counts()[*idx], 2u);
}

TEST(GroupStatisticsTest, ComputeDegradesToEmptyOnBadColumn) {
  // Regression: Compute used to assert on GroupIndex::Build failure,
  // which was undefined behaviour in release builds. An out-of-range
  // grouping column must now yield empty statistics.
  Table t{Schema({Field{"g", DataType::kString}})};
  ASSERT_TRUE(t.AppendRow({Value("x")}).ok());
  GroupStatistics stats = GroupStatistics::Compute(t, {5});
  EXPECT_EQ(stats.num_groups(), 0u);
  EXPECT_EQ(stats.total_tuples(), 0u);
}

TEST(GroupCensusTest, StatsAndPositionsAgreeWithTheIndex) {
  // Grouping columns of all three types, in non-schema order; -0.0 and
  // 0.0 share a group.
  Table t{Schema({Field{"i", DataType::kInt64},
                  Field{"d", DataType::kDouble},
                  Field{"s", DataType::kString}})};
  Random rng(7);
  const double doubles[] = {-0.0, 0.0, 1.5, -2.25};
  const char* strings[] = {"x", "y", "z"};
  for (int row = 0; row < 3000; ++row) {
    const int64_t i = rng.UniformRange(0, 9);
    const double d = doubles[rng.UniformRange(0, 3)];
    const char* s = strings[rng.UniformRange(0, 2)];
    ASSERT_TRUE(t.AppendRow({Value(i), Value(d), Value(s)}).ok());
  }
  const std::vector<size_t> grouping = {2, 1, 0};
  auto census = GroupCensus::Build(t, grouping);
  ASSERT_TRUE(census.ok());
  ASSERT_NE(census->index, nullptr);
  const GroupIndex& index = *census->index;
  EXPECT_EQ(index.columns(), grouping);
  EXPECT_TRUE(census->CheckTable(t).ok());

  std::vector<std::pair<GroupKey, uint64_t>> pairs;
  for (size_t g = 0; g < index.num_groups(); ++g) {
    pairs.emplace_back(index.keys()[g], index.counts()[g]);
  }
  auto expected = GroupStatistics::FromCounts(std::move(pairs));
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(census->stats.keys(), expected->keys());
  EXPECT_EQ(census->stats.counts(), expected->counts());
  EXPECT_EQ(census->stats.total_tuples(), t.num_rows());

  ASSERT_EQ(census->position.size(), index.num_groups());
  for (size_t row = 0; row < t.num_rows(); ++row) {
    ASSERT_EQ(census->stats.keys()[census->position[index.row_ids()[row]]],
              t.KeyForRow(row, grouping))
        << "row " << row;
  }
  EXPECT_FALSE(GroupCensus::Build(t, {5}).ok());
}

TEST(GroupStatisticsTest, FromCountsRejectsZeroAndDuplicates) {
  EXPECT_FALSE(GroupStatistics::FromCounts({{Key("a", "b"), 0}}).ok());
  EXPECT_FALSE(
      GroupStatistics::FromCounts({{Key("a", "b"), 1}, {Key("a", "b"), 2}})
          .ok());
}

TEST(GroupStatisticsTest, FromCountsRejectsMixedArity) {
  EXPECT_FALSE(GroupStatistics::FromCounts(
                   {{GroupKey{Value("a")}, 1}, {Key("a", "b"), 2}})
                   .ok());
}

TEST(GroupStatisticsTest, IndexOfMissing) {
  GroupStatistics stats = Figure5Stats();
  EXPECT_FALSE(stats.IndexOf(Key("zz", "zz")).ok());
}

// --- Figure 5 golden values ---

TEST(Figure5Test, HouseColumn) {
  GroupStatistics stats = Figure5Stats();
  Allocation house = AllocateHouse(stats, 100.0);
  EXPECT_NEAR(SizeOf(stats, house, Key("a1", "b1")), 30.0, 1e-9);
  EXPECT_NEAR(SizeOf(stats, house, Key("a1", "b2")), 30.0, 1e-9);
  EXPECT_NEAR(SizeOf(stats, house, Key("a1", "b3")), 15.0, 1e-9);
  EXPECT_NEAR(SizeOf(stats, house, Key("a2", "b3")), 25.0, 1e-9);
}

TEST(Figure5Test, SenateColumn) {
  GroupStatistics stats = Figure5Stats();
  Allocation senate = AllocateSenate(stats, 100.0);
  for (double s : senate.expected_sizes) EXPECT_NEAR(s, 25.0, 1e-9);
}

TEST(Figure5Test, BasicCongressAfterScaling) {
  GroupStatistics stats = Figure5Stats();
  Allocation bc = AllocateBasicCongress(stats, 100.0);
  // Paper: 27.3, 27.3, 22.7, 22.7 (to one decimal).
  EXPECT_NEAR(SizeOf(stats, bc, Key("a1", "b1")), 100.0 * 0.30 / 1.10, 1e-9);
  EXPECT_NEAR(SizeOf(stats, bc, Key("a1", "b2")), 27.27, 0.01);
  EXPECT_NEAR(SizeOf(stats, bc, Key("a1", "b3")), 22.73, 0.01);
  EXPECT_NEAR(SizeOf(stats, bc, Key("a2", "b3")), 22.73, 0.01);
  EXPECT_NEAR(bc.Total(), 100.0, 1e-6);
}

TEST(Figure5Test, CongressSingleGroupingVectors) {
  GroupStatistics stats = Figure5Stats();
  // s_{g,A} with X=100: 20, 20, 10, 50 (paper's "s_g,A" column).
  std::vector<double> wa = GroupingWeightVector(stats, {0});
  EXPECT_NEAR(100.0 * wa[0], 20.0, 1e-9);  // (a1,b1).
  EXPECT_NEAR(100.0 * wa[1], 20.0, 1e-9);  // (a1,b2).
  EXPECT_NEAR(100.0 * wa[2], 10.0, 1e-9);  // (a1,b3).
  EXPECT_NEAR(100.0 * wa[3], 50.0, 1e-9);  // (a2,b3).
  // s_{g,B}: 33.3, 33.3, 12.5, 20.8.
  std::vector<double> wb = GroupingWeightVector(stats, {1});
  EXPECT_NEAR(100.0 * wb[0], 33.333, 0.01);
  EXPECT_NEAR(100.0 * wb[1], 33.333, 0.01);
  EXPECT_NEAR(100.0 * wb[2], 12.5, 1e-9);
  EXPECT_NEAR(100.0 * wb[3], 20.833, 0.01);
}

TEST(Figure5Test, CongressAfterScaling) {
  GroupStatistics stats = Figure5Stats();
  Allocation congress = AllocateCongress(stats, 100.0);
  // Paper's final column: 23.5, 23.5, 17.7 (17.65), 35.3.
  EXPECT_NEAR(SizeOf(stats, congress, Key("a1", "b1")), 23.53, 0.01);
  EXPECT_NEAR(SizeOf(stats, congress, Key("a1", "b2")), 23.53, 0.01);
  EXPECT_NEAR(SizeOf(stats, congress, Key("a1", "b3")), 17.65, 0.01);
  EXPECT_NEAR(SizeOf(stats, congress, Key("a2", "b3")), 35.29, 0.01);
  EXPECT_NEAR(congress.Total(), 100.0, 1e-6);
  // Before-scaling sum is 141.66; f = 100 / 141.66.
  EXPECT_NEAR(congress.scale_down_factor, 100.0 / 141.66, 0.001);
}

// --- General properties ---

TEST(AllocationTest, AllStrategiesSumToX) {
  GroupStatistics stats = Figure5Stats();
  for (auto strategy :
       {AllocationStrategy::kHouse, AllocationStrategy::kSenate,
        AllocationStrategy::kBasicCongress, AllocationStrategy::kCongress}) {
    Allocation alloc = Allocate(strategy, stats, 100.0);
    EXPECT_NEAR(alloc.Total(), 100.0, 1e-6)
        << AllocationStrategyToString(strategy);
  }
}

TEST(AllocationTest, UniformDataMakesAllStrategiesEqual) {
  // z = 0: every group the same size; House == Senate == Congress and
  // f == 1 (the paper's Section 4.6 "former" case).
  std::vector<std::pair<GroupKey, uint64_t>> counts;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 2; ++b) {
      counts.push_back({GroupKey{Value(int64_t{a}), Value(int64_t{b})}, 100});
    }
  }
  auto stats = GroupStatistics::FromCounts(std::move(counts));
  ASSERT_TRUE(stats.ok());
  Allocation congress = AllocateCongress(*stats, 60.0);
  EXPECT_NEAR(congress.scale_down_factor, 1.0, 1e-9);
  for (double s : congress.expected_sizes) EXPECT_NEAR(s, 10.0, 1e-9);
}

TEST(AllocationTest, CongressDominatesEveryGroupingProportionally) {
  // After scaling by f, every group's share is >= f * s_{g,T} for every
  // sub-grouping T (the within-factor-f guarantee of Section 4.6).
  GroupStatistics stats = Figure5Stats();
  const double x = 100.0;
  Allocation congress = AllocateCongress(stats, x);
  const double f = congress.scale_down_factor;
  for (const auto& grouping :
       std::vector<std::vector<size_t>>{{}, {0}, {1}, {0, 1}}) {
    std::vector<double> wv = GroupingWeightVector(stats, grouping);
    for (size_t g = 0; g < stats.num_groups(); ++g) {
      EXPECT_GE(congress.expected_sizes[g] + 1e-9, f * x * wv[g]);
    }
  }
}

TEST(AllocationTest, ScaleDownFactorWithinTheoreticalBounds) {
  GroupStatistics stats = Figure5Stats();
  Allocation congress = AllocateCongress(stats, 100.0);
  const double arity = 2.0;
  EXPECT_GT(congress.scale_down_factor, std::pow(2.0, -arity));
  EXPECT_LE(congress.scale_down_factor, 1.0);
}

TEST(AllocationTest, PathologicalDistributionDrivesFToward2PowMinusG) {
  // Section 4.6's adversarial distribution (Eq. 7): with n attributes and
  // domain size m, f approaches 2^-n. Verify n=2, m=8 lands well below
  // the uniform case and near the bound's trajectory.
  const int n = 2;
  const uint64_t m = 8;
  std::vector<std::pair<GroupKey, uint64_t>> counts;
  for (uint64_t v1 = 1; v1 <= m; ++v1) {
    for (uint64_t v2 = 1; v2 <= m; ++v2) {
      int alpha = (v1 == 1 ? 1 : 0) + (v2 == 1 ? 1 : 0);
      // |(v1,v2)| = (2m)^(2*n*alpha); scaled down to keep counts sane:
      // use base 16 = 2m with exponent n*alpha (monotone same shape).
      uint64_t size = 1;
      for (int e = 0; e < n * alpha; ++e) size *= (2 * m);
      counts.push_back(
          {GroupKey{Value(static_cast<int64_t>(v1)),
                    Value(static_cast<int64_t>(v2))},
           size});
    }
  }
  auto stats = GroupStatistics::FromCounts(std::move(counts));
  ASSERT_TRUE(stats.ok());
  Allocation congress = AllocateCongress(*stats, 1000.0);
  // Theoretical limit 2^-2 = 0.25; with m=8 it is close but above.
  EXPECT_LT(congress.scale_down_factor, 0.35);
  EXPECT_GT(congress.scale_down_factor, 0.25);
}

TEST(AllocationTest, SenateCapsAtPopulationAndRedistributes) {
  auto stats = GroupStatistics::FromCounts(
      {{GroupKey{Value("tiny")}, 2}, {GroupKey{Value("big")}, 1000}});
  ASSERT_TRUE(stats.ok());
  Allocation senate = AllocateSenate(*stats, 100.0);
  auto tiny = stats->IndexOf({Value("tiny")});
  auto big = stats->IndexOf({Value("big")});
  ASSERT_TRUE(tiny.ok() && big.ok());
  EXPECT_NEAR(senate.expected_sizes[*tiny], 2.0, 1e-9);
  EXPECT_NEAR(senate.expected_sizes[*big], 98.0, 1e-9);
}

TEST(AllocationTest, BasicCongressEqualsCongressForOneAttribute) {
  // With |G| = 1 the Congress subsets are exactly {∅, G}, i.e. Basic
  // Congress.
  auto stats = GroupStatistics::FromCounts({{GroupKey{Value("a")}, 900},
                                            {GroupKey{Value("b")}, 90},
                                            {GroupKey{Value("c")}, 10}});
  ASSERT_TRUE(stats.ok());
  Allocation bc = AllocateBasicCongress(*stats, 50.0);
  Allocation congress = AllocateCongress(*stats, 50.0);
  for (size_t i = 0; i < stats->num_groups(); ++i) {
    EXPECT_NEAR(bc.expected_sizes[i], congress.expected_sizes[i], 1e-6);
  }
}

TEST(AllocationTest, CongressOverGroupingsSubsetsOnly) {
  GroupStatistics stats = Figure5Stats();
  // Restricting Congress to {{}, {0,1}} reproduces BasicCongress.
  auto restricted =
      AllocateCongressOverGroupings(stats, 100.0, {{}, {0, 1}});
  ASSERT_TRUE(restricted.ok());
  Allocation bc = AllocateBasicCongress(stats, 100.0);
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    EXPECT_NEAR(restricted->expected_sizes[i], bc.expected_sizes[i], 1e-6);
  }
}

TEST(AllocationTest, CongressOverGroupingsValidation) {
  GroupStatistics stats = Figure5Stats();
  EXPECT_FALSE(AllocateCongressOverGroupings(stats, 100.0, {}).ok());
  EXPECT_FALSE(AllocateCongressOverGroupings(stats, 100.0, {{7}}).ok());
}

TEST(AllocationTest, WeightVectorValidation) {
  GroupStatistics stats = Figure5Stats();
  EXPECT_FALSE(AllocateFromWeightVectors(stats, 100.0, {}).ok());
  EXPECT_FALSE(
      AllocateFromWeightVectors(stats, 100.0, {{1.0, 1.0}}).ok());  // Arity.
  EXPECT_FALSE(AllocateFromWeightVectors(stats, 100.0,
                                         {{0.0, 0.0, 0.0, 0.0}})
                   .ok());  // Zero sum.
  EXPECT_FALSE(AllocateFromWeightVectors(stats, 100.0,
                                         {{-1.0, 1.0, 1.0, 1.0}})
                   .ok());  // Negative.
}

TEST(AllocationTest, WeightVectorMaxUnion) {
  GroupStatistics stats = Figure5Stats();
  // Two one-hot vectors: the max-union splits X equally.
  auto alloc = AllocateFromWeightVectors(
      stats, 100.0,
      {{1.0, 0.0, 0.0, 0.0}, {0.0, 1.0, 0.0, 0.0}});
  ASSERT_TRUE(alloc.ok());
  EXPECT_NEAR(alloc->expected_sizes[0], 50.0, 1e-9);
  EXPECT_NEAR(alloc->expected_sizes[1], 50.0, 1e-9);
  EXPECT_NEAR(alloc->expected_sizes[2], 0.0, 1e-9);
}

TEST(AllocationTest, PreferencesFavorWeightedGrouping) {
  GroupStatistics stats = Figure5Stats();
  // All preference on the finest grouping -> Senate.
  auto senate_like = AllocateWithPreferences(stats, 100.0, {{{0, 1}, 1.0}});
  ASSERT_TRUE(senate_like.ok());
  for (double s : senate_like->expected_sizes) EXPECT_NEAR(s, 25.0, 1e-6);
  // All preference on no grouping -> House.
  auto house_like = AllocateWithPreferences(stats, 100.0, {{{}, 1.0}});
  ASSERT_TRUE(house_like.ok());
  Allocation house = AllocateHouse(stats, 100.0);
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    EXPECT_NEAR(house_like->expected_sizes[i], house.expected_sizes[i], 1e-6);
  }
}

TEST(AllocationTest, PreferencesValidation) {
  GroupStatistics stats = Figure5Stats();
  EXPECT_FALSE(AllocateWithPreferences(stats, 100.0, {}).ok());
  EXPECT_FALSE(AllocateWithPreferences(stats, 100.0, {{{0}, -1.0}}).ok());
  EXPECT_FALSE(AllocateWithPreferences(stats, 100.0, {{{0}, 0.0}}).ok());
}

TEST(RoundAllocationTest, SumsToTarget) {
  GroupStatistics stats = Figure5Stats();
  Allocation congress = AllocateCongress(stats, 100.0);
  auto sizes = RoundAllocation(stats, congress);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), uint64_t{0}), 100u);
}

TEST(RoundAllocationTest, NeverExceedsPopulation) {
  auto stats = GroupStatistics::FromCounts(
      {{GroupKey{Value("tiny")}, 3}, {GroupKey{Value("big")}, 1000}});
  ASSERT_TRUE(stats.ok());
  Allocation senate = AllocateSenate(*stats, 200.0);
  auto sizes = RoundAllocation(*stats, senate);
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i], stats->counts()[i]);
  }
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), uint64_t{0}), 200u);
}

TEST(RoundAllocationTest, TargetLargerThanRelationClamps) {
  auto stats = GroupStatistics::FromCounts({{GroupKey{Value("a")}, 5},
                                            {GroupKey{Value("b")}, 5}});
  ASSERT_TRUE(stats.ok());
  Allocation house = AllocateHouse(*stats, 100.0);
  auto sizes = RoundAllocation(*stats, house);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), uint64_t{0}), 10u);
}

class StrategySweep
    : public ::testing::TestWithParam<std::tuple<AllocationStrategy, double>> {
};

TEST_P(StrategySweep, AllocationsFeasibleOnSkewedData) {
  auto [strategy, skew] = GetParam();
  // 64 groups with Zipf sizes totalling 100K.
  std::vector<uint64_t> sizes = ZipfGroupSizes(100000, 64, skew);
  std::vector<std::pair<GroupKey, uint64_t>> counts;
  for (size_t i = 0; i < sizes.size(); ++i) {
    counts.push_back(
        {GroupKey{Value(static_cast<int64_t>(i / 8)),
                  Value(static_cast<int64_t>(i % 8))},
         sizes[i]});
  }
  auto stats = GroupStatistics::FromCounts(std::move(counts));
  ASSERT_TRUE(stats.ok());
  const double x = 5000.0;
  Allocation alloc = Allocate(strategy, *stats, x);
  EXPECT_NEAR(alloc.Total(), x, x * 1e-6);
  for (size_t i = 0; i < stats->num_groups(); ++i) {
    EXPECT_GE(alloc.expected_sizes[i], 0.0);
    EXPECT_LE(alloc.expected_sizes[i],
              static_cast<double>(stats->counts()[i]) + 1e-6);
  }
  auto rounded = RoundAllocation(*stats, alloc);
  EXPECT_EQ(std::accumulate(rounded.begin(), rounded.end(), uint64_t{0}),
            static_cast<uint64_t>(x));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAllSkews, StrategySweep,
    ::testing::Combine(::testing::Values(AllocationStrategy::kHouse,
                                         AllocationStrategy::kSenate,
                                         AllocationStrategy::kBasicCongress,
                                         AllocationStrategy::kCongress),
                       ::testing::Values(0.0, 0.86, 1.5)));

}  // namespace
}  // namespace congress
