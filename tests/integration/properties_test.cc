#include <cmath>
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/rewriter.h"
#include "core/synopsis.h"
#include "engine/executor.h"
#include "sampling/builder.h"
#include "sampling/maintenance.h"
#include "util/zipf.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"

namespace congress {
namespace {

using tpcd::GenerateLineitem;
using tpcd::LineitemConfig;

Table SmallLineitem(uint64_t tuples, uint64_t groups, double skew,
                    uint64_t seed) {
  LineitemConfig config;
  config.num_tuples = tuples;
  config.num_groups = groups;
  config.group_skew_z = skew;
  config.seed = seed;
  auto data = GenerateLineitem(config);
  EXPECT_TRUE(data.ok());
  return std::move(data->table);
}

// ---------------------------------------------------------------------------
// Property: across strategies and skews, two-pass samples land exactly on
// the rounded allocation, and Senate/Congress keep every group non-empty
// when space permits.
// ---------------------------------------------------------------------------

class SamplePropertySweep
    : public ::testing::TestWithParam<
          std::tuple<AllocationStrategy, double, double>> {};

TEST_P(SamplePropertySweep, BuiltSampleHonorsAllocation) {
  auto [strategy, skew, fraction] = GetParam();
  Table t = SmallLineitem(20000, 27, skew, 101);
  auto grouping = tpcd::LineitemGroupingColumns();
  auto census = GroupCensus::Build(t, grouping);
  ASSERT_TRUE(census.ok());
  const GroupStatistics& stats = census->stats;
  const double x = fraction * static_cast<double>(t.num_rows());
  Allocation alloc = Allocate(strategy, stats, x);
  auto rounded = RoundAllocation(stats, alloc);
  Random rng(7);
  auto sample = BuildStratifiedSample(t, *census, alloc, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->num_rows(),
            std::accumulate(rounded.begin(), rounded.end(), uint64_t{0}));
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    auto idx = sample->StratumIndex(stats.keys()[i]);
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(sample->strata()[*idx].sample_count, rounded[i]);
    EXPECT_LE(rounded[i], stats.counts()[i]);
  }
  if ((strategy == AllocationStrategy::kSenate ||
       strategy == AllocationStrategy::kCongress) &&
      x >= static_cast<double>(stats.num_groups())) {
    for (uint64_t r : rounded) {
      EXPECT_GE(r, 1u) << "small group starved by "
                       << AllocationStrategyToString(strategy);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategySkewFraction, SamplePropertySweep,
    ::testing::Combine(::testing::Values(AllocationStrategy::kHouse,
                                         AllocationStrategy::kSenate,
                                         AllocationStrategy::kBasicCongress,
                                         AllocationStrategy::kCongress),
                       ::testing::Values(0.0, 0.86, 1.5),
                       ::testing::Values(0.01, 0.07, 0.25)));

// ---------------------------------------------------------------------------
// Property: the four rewrite strategies agree with the estimator's point
// estimates on every strategy/skew combination.
// ---------------------------------------------------------------------------

class RewriteEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<AllocationStrategy, double>> {
};

TEST_P(RewriteEquivalenceSweep, AllPlansProduceTheSameAnswer) {
  auto [strategy, skew] = GetParam();
  Table t = SmallLineitem(10000, 27, skew, 202);
  Random rng(9);
  auto sample =
      BuildSample(t, tpcd::LineitemGroupingColumns(), strategy, 700.0, &rng);
  ASSERT_TRUE(sample.ok());
  Rewriter rewriter(*sample);
  GroupByQuery q = tpcd::MakeQg2();
  auto reference = rewriter.Answer(q, RewriteStrategy::kIntegrated);
  ASSERT_TRUE(reference.ok());
  for (auto plan :
       {RewriteStrategy::kNestedIntegrated, RewriteStrategy::kNormalized,
        RewriteStrategy::kKeyNormalized}) {
    auto result = rewriter.Answer(q, plan);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->num_groups(), reference->num_groups());
    for (const GroupResult& row : reference->rows()) {
      const GroupResult* other = result->Find(row.key);
      ASSERT_NE(other, nullptr);
      for (size_t a = 0; a < row.aggregates.size(); ++a) {
        EXPECT_NEAR(other->aggregates[a], row.aggregates[a],
                    1e-6 * std::abs(row.aggregates[a]) + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSkews, RewriteEquivalenceSweep,
    ::testing::Combine(::testing::Values(AllocationStrategy::kHouse,
                                         AllocationStrategy::kSenate,
                                         AllocationStrategy::kBasicCongress,
                                         AllocationStrategy::kCongress),
                       ::testing::Values(0.0, 1.5)));

// ---------------------------------------------------------------------------
// Property: estimator unbiasedness across strategies — averaging the
// estimated global SUM over independent samples converges to the truth.
// ---------------------------------------------------------------------------

class UnbiasednessSweep
    : public ::testing::TestWithParam<AllocationStrategy> {};

TEST_P(UnbiasednessSweep, GlobalSumEstimateIsUnbiased) {
  AllocationStrategy strategy = GetParam();
  Table t = SmallLineitem(5000, 27, 1.2, 303);
  GroupByQuery q;
  q.aggregates = {AggregateSpec{AggregateKind::kSum, tpcd::kLQuantity}};
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(exact.ok());
  const double truth = exact->rows()[0].aggregates[0];

  const int trials = 120;
  double total = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    Random rng(5000 + trial);
    auto sample =
        BuildSample(t, tpcd::LineitemGroupingColumns(), strategy, 250.0, &rng);
    ASSERT_TRUE(sample.ok());
    auto approx = EstimateGroupBy(*sample, SampleMoments::Compute(*sample), q);
    ASSERT_TRUE(approx.ok());
    ASSERT_EQ(approx->num_groups(), 1u);
    total += approx->rows()[0].estimates[0];
  }
  EXPECT_NEAR(total / trials, truth, 0.03 * truth)
      << AllocationStrategyToString(strategy);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, UnbiasednessSweep,
                         ::testing::Values(AllocationStrategy::kHouse,
                                           AllocationStrategy::kSenate,
                                           AllocationStrategy::kBasicCongress,
                                           AllocationStrategy::kCongress));

// ---------------------------------------------------------------------------
// Property: one-pass (maintainer) construction matches two-pass builds in
// expected per-group sizes for House and Senate, where the targets are
// deterministic.
// ---------------------------------------------------------------------------

class OnePassSweep : public ::testing::TestWithParam<double> {};

TEST_P(OnePassSweep, SenateOnePassMatchesTwoPassSizes) {
  const double skew = GetParam();
  Table t = SmallLineitem(12000, 8, skew, 404);
  auto grouping = tpcd::LineitemGroupingColumns();
  Random rng(1);
  auto two_pass =
      BuildSample(t, grouping, AllocationStrategy::kSenate, 800.0, &rng);
  auto one_pass =
      BuildSampleOnePass(t, grouping, AllocationStrategy::kSenate, 800, 2);
  ASSERT_TRUE(two_pass.ok() && one_pass.ok());
  for (const Stratum& s : two_pass->strata()) {
    auto idx = one_pass->StratumIndex(s.key);
    ASSERT_TRUE(idx.ok());
    const Stratum& o = one_pass->strata()[*idx];
    EXPECT_EQ(o.population, s.population);
    // One-pass Senate targets floor/round of X/m; allow one-off rounding.
    EXPECT_NEAR(static_cast<double>(o.sample_count),
                static_cast<double>(s.sample_count), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, OnePassSweep,
                         ::testing::Values(0.0, 0.86, 1.5));

// ---------------------------------------------------------------------------
// Property: Senate subset-grouping dominance (Section 4.4) — a Senate
// sample answers coarser groupings with at least as many tuples per group
// as the finest grouping.
// ---------------------------------------------------------------------------

TEST(SenateDominanceTest, CoarserGroupsHaveMoreSupport) {
  Table t = SmallLineitem(20000, 27, 1.0, 505);
  Random rng(3);
  auto sample = BuildSample(t, tpcd::LineitemGroupingColumns(),
                            AllocationStrategy::kSenate, 1350.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery fine = tpcd::MakeQg3();
  GroupByQuery coarse = tpcd::MakeQg2();
  const SampleMoments moments = SampleMoments::Compute(*sample);
  auto fine_answer = EstimateGroupBy(*sample, moments, fine);
  auto coarse_answer = EstimateGroupBy(*sample, moments, coarse);
  ASSERT_TRUE(fine_answer.ok() && coarse_answer.ok());
  uint64_t min_fine = UINT64_MAX;
  for (const auto& row : fine_answer->rows()) {
    min_fine = std::min(min_fine, row.support);
  }
  for (const auto& row : coarse_answer->rows()) {
    EXPECT_GE(row.support, min_fine);
  }
}

// ---------------------------------------------------------------------------
// Property: Congress invariants hold for every grouping arity 1..4 — the
// scale-down factor stays within (2^-|G|, 1], every grouping's S1 target
// is met within factor f, and the allocation totals X.
// ---------------------------------------------------------------------------

class AritySweep : public ::testing::TestWithParam<size_t> {};

TEST_P(AritySweep, CongressInvariantsAcrossArity) {
  const size_t arity = GetParam();
  // Build synthetic stats: 3 distinct values per attribute, Zipf sizes.
  const size_t num_groups = static_cast<size_t>(std::pow(3.0, arity));
  auto sizes = ZipfGroupSizes(90'000, num_groups, 1.2);
  std::vector<std::pair<GroupKey, uint64_t>> counts;
  for (size_t g = 0; g < num_groups; ++g) {
    GroupKey key;
    size_t rest = g;
    for (size_t pos = 0; pos < arity; ++pos) {
      key.push_back(Value(static_cast<int64_t>(rest % 3)));
      rest /= 3;
    }
    counts.push_back({std::move(key), sizes[g]});
  }
  auto stats = GroupStatistics::FromCounts(std::move(counts));
  ASSERT_TRUE(stats.ok());
  const double x = 9000.0;
  Allocation congress = AllocateCongress(*stats, x);

  EXPECT_NEAR(congress.Total(), x, 1e-6);
  EXPECT_GT(congress.scale_down_factor,
            std::pow(2.0, -static_cast<double>(arity)));
  EXPECT_LE(congress.scale_down_factor, 1.0 + 1e-12);

  // Within-factor-f guarantee for every sub-grouping (capping at group
  // populations may relax it for saturated groups, so check uncapped
  // groups only).
  for (size_t mask = 0; mask < (size_t{1} << arity); ++mask) {
    std::vector<size_t> grouping;
    for (size_t pos = 0; pos < arity; ++pos) {
      if (mask & (size_t{1} << pos)) grouping.push_back(pos);
    }
    std::vector<double> wv = GroupingWeightVector(*stats, grouping);
    for (size_t g = 0; g < stats->num_groups(); ++g) {
      if (congress.expected_sizes[g] + 1e-6 >=
          static_cast<double>(stats->counts()[g])) {
        continue;  // Saturated by its population.
      }
      EXPECT_GE(congress.expected_sizes[g] + 1e-6,
                congress.scale_down_factor * x * wv[g])
          << "arity " << arity << " mask " << mask << " group " << g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arity1To4, AritySweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------------
// Property: with zero skew all strategies produce statistically identical
// error levels (they all degenerate to uniform sampling).
// ---------------------------------------------------------------------------

TEST(DegenerateSkewTest, StrategiesEquivalentOnUniformGroups) {
  Table t = SmallLineitem(27000, 27, 0.0, 606);
  auto grouping = tpcd::LineitemGroupingColumns();
  GroupStatistics stats = GroupStatistics::Compute(t, grouping);
  Allocation house = AllocateHouse(stats, 2700.0);
  Allocation senate = AllocateSenate(stats, 2700.0);
  Allocation congress = AllocateCongress(stats, 2700.0);
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    EXPECT_NEAR(house.expected_sizes[i], senate.expected_sizes[i], 1e-6);
    EXPECT_NEAR(house.expected_sizes[i], congress.expected_sizes[i], 1e-6);
  }
  EXPECT_NEAR(congress.scale_down_factor, 1.0, 1e-9);
}

}  // namespace
}  // namespace congress
