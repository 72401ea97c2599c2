#include "core/rewriter.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "engine/executor.h"
#include "sampling/builder.h"

namespace congress {
namespace {

constexpr RewriteStrategy kAllStrategies[] = {
    RewriteStrategy::kIntegrated, RewriteStrategy::kNestedIntegrated,
    RewriteStrategy::kNormalized, RewriteStrategy::kKeyNormalized};

Table MakeTable() {
  Table t{Schema({Field{"a", DataType::kInt64},
                  Field{"b", DataType::kInt64},
                  Field{"q", DataType::kDouble},
                  Field{"p", DataType::kDouble}})};
  int serial = 0;
  auto fill = [&](int64_t a, int64_t b, int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(t.AppendRow({Value(a), Value(b),
                               Value(static_cast<double>(serial % 13 + 1)),
                               Value(static_cast<double>(serial % 7 + 1))})
                      .ok());
      ++serial;
    }
  };
  fill(0, 0, 400);
  fill(0, 1, 300);
  fill(1, 0, 200);
  fill(1, 1, 100);
  return t;
}

StratifiedSample MakeSample(const Table& t, double size, uint64_t seed) {
  Random rng(seed);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kCongress, size, &rng);
  EXPECT_TRUE(sample.ok());
  return std::move(sample).value();
}

GroupByQuery Query(std::vector<size_t> group_cols, AggregateKind kind) {
  GroupByQuery q;
  q.group_columns = std::move(group_cols);
  q.aggregates = {AggregateSpec{kind, 2}};
  return q;
}

TEST(RewriterTest, StrategyNames) {
  EXPECT_STREQ(RewriteStrategyToString(RewriteStrategy::kIntegrated),
               "Integrated");
  EXPECT_STREQ(RewriteStrategyToString(RewriteStrategy::kNestedIntegrated),
               "Nested-Integrated");
  EXPECT_STREQ(RewriteStrategyToString(RewriteStrategy::kNormalized),
               "Normalized");
  EXPECT_STREQ(RewriteStrategyToString(RewriteStrategy::kKeyNormalized),
               "Key-Normalized");
}

TEST(RewriterTest, MaterializationShapes) {
  Table t = MakeTable();
  StratifiedSample sample = MakeSample(t, 100, 1);
  Rewriter rewriter(sample);
  EXPECT_EQ(rewriter.integrated_rel().num_rows(), sample.num_rows());
  EXPECT_EQ(rewriter.integrated_rel().num_columns(), 5u);
  EXPECT_EQ(rewriter.normalized_samp_rel().num_columns(), 4u);
  EXPECT_EQ(rewriter.normalized_aux_rel().num_rows(), 4u);  // 4 strata.
  EXPECT_EQ(rewriter.key_normalized_samp_rel().num_columns(), 5u);
  EXPECT_EQ(rewriter.key_normalized_aux_rel().num_columns(), 2u);
}

TEST(RewriterTest, AllStrategiesAgreeOnSum) {
  Table t = MakeTable();
  StratifiedSample sample = MakeSample(t, 120, 2);
  Rewriter rewriter(sample);
  GroupByQuery q = Query({0, 1}, AggregateKind::kSum);
  auto reference = rewriter.Answer(q, RewriteStrategy::kIntegrated);
  ASSERT_TRUE(reference.ok());
  for (RewriteStrategy s : kAllStrategies) {
    auto result = rewriter.Answer(q, s);
    ASSERT_TRUE(result.ok()) << RewriteStrategyToString(s);
    ASSERT_EQ(result->num_groups(), reference->num_groups());
    for (const ApproximateGroupRow& row : reference->rows()) {
      const auto other = result->Find(row.key);
      ASSERT_TRUE(other.has_value());
      EXPECT_NEAR(other->estimates[0], row.estimates[0],
                  1e-6 * std::fabs(row.estimates[0]) + 1e-9)
          << RewriteStrategyToString(s);
    }
  }
}

TEST(RewriterTest, AllStrategiesAgreeOnCountAndAvg) {
  Table t = MakeTable();
  StratifiedSample sample = MakeSample(t, 150, 3);
  Rewriter rewriter(sample);
  for (AggregateKind kind : {AggregateKind::kCount, AggregateKind::kAvg}) {
    GroupByQuery q = Query({0}, kind);
    auto reference = rewriter.Answer(q, RewriteStrategy::kIntegrated);
    ASSERT_TRUE(reference.ok());
    for (RewriteStrategy s : kAllStrategies) {
      auto result = rewriter.Answer(q, s);
      ASSERT_TRUE(result.ok());
      for (const ApproximateGroupRow& row : reference->rows()) {
        const auto other = result->Find(row.key);
        ASSERT_TRUE(other.has_value());
        EXPECT_NEAR(other->estimates[0], row.estimates[0],
                    1e-6 * std::fabs(row.estimates[0]) + 1e-9);
      }
    }
  }
}

TEST(RewriterTest, MatchesEstimatorPointEstimates) {
  Table t = MakeTable();
  StratifiedSample sample = MakeSample(t, 120, 4);
  Rewriter rewriter(sample);
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2},
                  AggregateSpec{AggregateKind::kCount, 0},
                  AggregateSpec{AggregateKind::kAvg, 3}};
  auto rewritten = rewriter.Answer(q, RewriteStrategy::kIntegrated);
  auto estimated = EstimateGroupBy(sample, SampleMoments::Compute(sample), q);
  ASSERT_TRUE(rewritten.ok() && estimated.ok());
  for (const ApproximateGroupRow& row : rewritten->rows()) {
    const auto est = estimated->Find(row.key);
    ASSERT_TRUE(est.has_value());
    for (size_t a = 0; a < row.estimates.size(); ++a) {
      EXPECT_NEAR(row.estimates[a], est->estimates[a],
                  1e-6 * std::fabs(est->estimates[a]) + 1e-9);
    }
  }
}

TEST(RewriterTest, FullSampleGivesExactAnswers) {
  Table t = MakeTable();
  StratifiedSample sample = MakeSample(t, t.num_rows(), 5);
  Rewriter rewriter(sample);
  GroupByQuery q = Query({0, 1}, AggregateKind::kSum);
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(exact.ok());
  for (RewriteStrategy s : kAllStrategies) {
    auto result = rewriter.Answer(q, s);
    ASSERT_TRUE(result.ok());
    for (const ApproximateGroupRow& row : exact->rows()) {
      const auto other = result->Find(row.key);
      ASSERT_TRUE(other.has_value());
      EXPECT_NEAR(other->estimates[0], row.estimates[0],
                  1e-6 * std::fabs(row.estimates[0]));
    }
  }
}

TEST(RewriterTest, PredicatePushedToSampleScan) {
  Table t = MakeTable();
  StratifiedSample sample = MakeSample(t, 200, 6);
  Rewriter rewriter(sample);
  GroupByQuery q = Query({0}, AggregateKind::kSum);
  q.predicate = MakeEqualsPredicate(1, Value(int64_t{0}));
  auto with_pred = rewriter.Answer(q, RewriteStrategy::kIntegrated);
  GroupByQuery q_all = Query({0}, AggregateKind::kSum);
  auto without = rewriter.Answer(q_all, RewriteStrategy::kIntegrated);
  ASSERT_TRUE(with_pred.ok() && without.ok());
  for (const ApproximateGroupRow& row : with_pred->rows()) {
    const auto all = without->Find(row.key);
    ASSERT_TRUE(all.has_value());
    EXPECT_LT(row.estimates[0], all->estimates[0]);
  }
  // All strategies agree under the predicate too.
  for (RewriteStrategy s : kAllStrategies) {
    auto result = rewriter.Answer(q, s);
    ASSERT_TRUE(result.ok());
    for (const ApproximateGroupRow& row : with_pred->rows()) {
      const auto other = result->Find(row.key);
      ASSERT_TRUE(other.has_value());
      EXPECT_NEAR(other->estimates[0], row.estimates[0],
                  1e-6 * std::fabs(row.estimates[0]) + 1e-9);
    }
  }
}

TEST(RewriterTest, NoGroupByQuery) {
  Table t = MakeTable();
  StratifiedSample sample = MakeSample(t, 150, 7);
  Rewriter rewriter(sample);
  GroupByQuery q = Query({}, AggregateKind::kSum);
  for (RewriteStrategy s : kAllStrategies) {
    auto result = rewriter.Answer(q, s);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->num_groups(), 1u);
  }
}

TEST(RewriterTest, RejectsUnsupportedAggregates) {
  Table t = MakeTable();
  StratifiedSample sample = MakeSample(t, 100, 8);
  Rewriter rewriter(sample);
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kMax, 2}};
  EXPECT_FALSE(rewriter.Answer(q, RewriteStrategy::kIntegrated).ok());
  q.aggregates.clear();
  EXPECT_FALSE(rewriter.Answer(q, RewriteStrategy::kIntegrated).ok());
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 99}};
  EXPECT_FALSE(rewriter.Answer(q, RewriteStrategy::kIntegrated).ok());
}

TEST(RewriterTest, UnbiasedMixedRateScaling) {
  // Two strata sampled at very different rates; the scaled SUM must use
  // per-stratum scale factors, not a single global rate (Section 5.1).
  Table t{Schema({Field{"g", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  // Group 0: 100 tuples of value 1; group 1: 10 tuples of value 1.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(int64_t{0}), Value(1.0)}).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(1.0)}).ok());
  }
  Random rng(9);
  auto sample =
      BuildSample(t, {0}, AllocationStrategy::kSenate, 20.0, &rng);
  ASSERT_TRUE(sample.ok());
  Rewriter rewriter(*sample);
  GroupByQuery q;
  q.group_columns = {};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 1}};
  for (RewriteStrategy s : kAllStrategies) {
    auto result = rewriter.Answer(q, s);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->num_groups(), 1u);
    // Exact total is 110; all-constant values make the estimator exact.
    EXPECT_NEAR(result->rows()[0].estimates[0], 110.0, 1e-6);
  }
}

}  // namespace
}  // namespace congress
