#include "sampling/congress_variants.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "engine/executor.h"

namespace congress {
namespace {

constexpr CongressVariant kAllVariants[] = {
    CongressVariant::kExactSize, CongressVariant::kBernoulli,
    CongressVariant::kEq8, CongressVariant::kGroupFill};

/// Figure-5-shaped table, scaled 10x: (a1,b1)=3000, (a1,b2)=3000,
/// (a1,b3)=1500, (a2,b3)=2500.
Table MakeTable() {
  Table t{Schema({Field{"a", DataType::kString},
                  Field{"b", DataType::kString},
                  Field{"v", DataType::kDouble}})};
  int serial = 0;
  auto fill = [&](const char* a, const char* b, int n) {
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(t.AppendRow({Value(a), Value(b),
                               Value(static_cast<double>(serial++ % 11))})
                      .ok());
    }
  };
  fill("a1", "b1", 3000);
  fill("a1", "b2", 3000);
  fill("a1", "b3", 1500);
  fill("a2", "b3", 2500);
  return t;
}

TEST(CongressVariantsTest, VariantNames) {
  EXPECT_STREQ(CongressVariantToString(CongressVariant::kExactSize),
               "ExactSize");
  EXPECT_STREQ(CongressVariantToString(CongressVariant::kBernoulli),
               "Bernoulli");
  EXPECT_STREQ(CongressVariantToString(CongressVariant::kEq8), "Eq8");
  EXPECT_STREQ(CongressVariantToString(CongressVariant::kGroupFill),
               "GroupFill");
}

TEST(CongressVariantsTest, AllVariantsBuildValidSamples) {
  Table t = MakeTable();
  for (CongressVariant variant : kAllVariants) {
    Random rng(1);
    auto sample = BuildCongressVariant(t, {0, 1}, 1000.0, variant, &rng);
    ASSERT_TRUE(sample.ok()) << CongressVariantToString(variant);
    EXPECT_EQ(sample->strata().size(), 4u);
    EXPECT_EQ(sample->total_population(), 10000u);
    // Size within 20% of target for the randomized variants, exact for
    // the reservoir one.
    EXPECT_GT(sample->num_rows(), 800u) << CongressVariantToString(variant);
    EXPECT_LT(sample->num_rows(), 1250u) << CongressVariantToString(variant);
    // Rows belong to their declared strata.
    for (size_t r = 0; r < sample->num_rows(); ++r) {
      const Stratum& s = sample->strata()[sample->row_strata()[r]];
      EXPECT_EQ(sample->rows().GetValue(r, 0), s.key[0]);
    }
  }
}

TEST(CongressVariantsTest, ExactSizeHitsTargetExactly) {
  Table t = MakeTable();
  Random rng(2);
  auto sample = BuildCongressVariant(t, {0, 1}, 1000.0,
                                     CongressVariant::kExactSize, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->num_rows(), 1000u);
}

TEST(CongressVariantsTest, ExpectedSizesAgreeAcrossVariants) {
  // Average per-group sizes over repeated builds: all variants should
  // match the Eq. 5 allocation (Figure 5 scaled: 235.3/235.3/176.5/352.9).
  Table t = MakeTable();
  const int trials = 25;
  for (CongressVariant variant : kAllVariants) {
    std::vector<double> avg(4, 0.0);
    for (int trial = 0; trial < trials; ++trial) {
      Random rng(100 + trial);
      auto sample =
          BuildCongressVariant(t, {0, 1}, 1000.0, variant, &rng);
      ASSERT_TRUE(sample.ok());
      for (const Stratum& s : sample->strata()) {
        auto idx = sample->StratumIndex(s.key);
        ASSERT_TRUE(idx.ok());
      }
      auto get = [&](const char* a, const char* b) {
        auto idx = sample->StratumIndex({Value(a), Value(b)});
        EXPECT_TRUE(idx.ok());
        return static_cast<double>(sample->strata()[*idx].sample_count);
      };
      avg[0] += get("a1", "b1");
      avg[1] += get("a1", "b2");
      avg[2] += get("a1", "b3");
      avg[3] += get("a2", "b3");
    }
    for (double& a : avg) a /= trials;
    // GroupFill rounds per grouping, so give it a wider band.
    double tol = variant == CongressVariant::kGroupFill ? 30.0 : 15.0;
    EXPECT_NEAR(avg[0], 235.3, tol) << CongressVariantToString(variant);
    EXPECT_NEAR(avg[1], 235.3, tol) << CongressVariantToString(variant);
    EXPECT_NEAR(avg[2], 176.5, tol) << CongressVariantToString(variant);
    EXPECT_NEAR(avg[3], 352.9, tol) << CongressVariantToString(variant);
  }
}

TEST(CongressVariantsTest, GroupFillGuaranteesPerGroupingFloor) {
  // The pseudocode tops each group h under every T up to f*X/m_T, so the
  // floor holds deterministically (not just in expectation).
  Table t = MakeTable();
  Random rng(3);
  auto sample = BuildCongressVariant(t, {0, 1}, 1000.0,
                                     CongressVariant::kGroupFill, &rng);
  ASSERT_TRUE(sample.ok());
  GroupStatistics stats = GroupStatistics::Compute(t, {0, 1});
  Allocation congress = AllocateCongress(stats, 1000.0);
  const double f = congress.scale_down_factor;

  // T = {A}: 2 super-groups, each should hold >= f*X/2 tuples.
  uint64_t a1_total = 0;
  uint64_t a2_total = 0;
  for (const Stratum& s : sample->strata()) {
    if (s.key[0] == Value("a1")) a1_total += s.sample_count;
    if (s.key[0] == Value("a2")) a2_total += s.sample_count;
  }
  EXPECT_GE(a1_total + 1, static_cast<uint64_t>(f * 1000.0 / 2.0));
  EXPECT_GE(a2_total + 1, static_cast<uint64_t>(f * 1000.0 / 2.0));
  // T = G: every finest group >= f*X/4.
  for (const Stratum& s : sample->strata()) {
    EXPECT_GE(s.sample_count + 1, static_cast<uint64_t>(f * 1000.0 / 4.0));
  }
}

TEST(CongressVariantsTest, AllVariantsGiveUnbiasedEstimates) {
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(exact.ok());
  const int trials = 40;
  for (CongressVariant variant : kAllVariants) {
    std::unordered_map<GroupKey, double, GroupKeyHash> sums;
    for (int trial = 0; trial < trials; ++trial) {
      Random rng(500 + trial);
      auto sample =
          BuildCongressVariant(t, {0, 1}, 600.0, variant, &rng);
      ASSERT_TRUE(sample.ok());
      auto approx =
          EstimateGroupBy(*sample, SampleMoments::Compute(*sample), q);
      ASSERT_TRUE(approx.ok());
      for (const auto& row : approx->rows()) {
        sums[GroupKey(row.key.begin(), row.key.end())] += row.estimates[0];
      }
    }
    for (const ApproximateGroupRow& row : exact->rows()) {
      double mean = sums[GroupKey(row.key.begin(), row.key.end())] / trials;
      EXPECT_NEAR(mean, row.estimates[0], 0.05 * row.estimates[0])
          << CongressVariantToString(variant) << " "
          << GroupKeyToString(row.key);
    }
  }
}

TEST(CongressVariantsTest, Validation) {
  Table t = MakeTable();
  Random rng(4);
  EXPECT_FALSE(
      BuildCongressVariant(t, {}, 100.0, CongressVariant::kEq8, &rng).ok());
  EXPECT_FALSE(
      BuildCongressVariant(t, {9}, 100.0, CongressVariant::kEq8, &rng).ok());
  EXPECT_FALSE(
      BuildCongressVariant(t, {0}, 0.0, CongressVariant::kEq8, &rng).ok());
  Table empty = t.CloneEmpty();
  EXPECT_FALSE(
      BuildCongressVariant(empty, {0}, 10.0, CongressVariant::kEq8, &rng)
          .ok());
}

}  // namespace
}  // namespace congress
