#include "core/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

namespace congress {
namespace {

QueryResult MakeResult(std::vector<std::pair<int64_t, double>> rows) {
  QueryResult r;
  for (auto& [key, value] : rows) {
    r.Add({Value(key)}, {value});
  }
  r.SortByKey();
  return r;
}

TEST(MetricsTest, ExactMatchIsZeroError) {
  QueryResult exact = MakeResult({{1, 10.0}, {2, 20.0}});
  QueryResult approx = MakeResult({{1, 10.0}, {2, 20.0}});
  auto report = CompareAnswers(exact, approx, 0);
  EXPECT_DOUBLE_EQ(report.linf, 0.0);
  EXPECT_DOUBLE_EQ(report.l1, 0.0);
  EXPECT_DOUBLE_EQ(report.l2, 0.0);
  EXPECT_EQ(report.exact_groups, 2u);
  EXPECT_EQ(report.missing_groups, 0u);
}

TEST(MetricsTest, PerGroupRelativeErrorEq1) {
  QueryResult exact = MakeResult({{1, 100.0}});
  QueryResult approx = MakeResult({{1, 90.0}});
  auto report = CompareAnswers(exact, approx, 0);
  EXPECT_DOUBLE_EQ(report.linf, 10.0);  // |100-90|/100 * 100.
  EXPECT_DOUBLE_EQ(report.l1, 10.0);
  EXPECT_DOUBLE_EQ(report.l2, 10.0);
}

TEST(MetricsTest, NormsDifferForHeterogeneousErrors) {
  QueryResult exact = MakeResult({{1, 100.0}, {2, 100.0}});
  QueryResult approx = MakeResult({{1, 100.0}, {2, 80.0}});
  auto report = CompareAnswers(exact, approx, 0);
  EXPECT_DOUBLE_EQ(report.linf, 20.0);
  EXPECT_DOUBLE_EQ(report.l1, 10.0);
  EXPECT_NEAR(report.l2, std::sqrt(200.0), 1e-9);  // sqrt((0+400)/2).
}

TEST(MetricsTest, MissingGroupDefaultHundredPercent) {
  QueryResult exact = MakeResult({{1, 100.0}, {2, 50.0}});
  QueryResult approx = MakeResult({{1, 100.0}});
  auto report = CompareAnswers(exact, approx, 0);
  EXPECT_EQ(report.missing_groups, 1u);
  EXPECT_DOUBLE_EQ(report.linf, 100.0);
  EXPECT_DOUBLE_EQ(report.l1, 50.0);
}

TEST(MetricsTest, MissingGroupSkipPolicy) {
  QueryResult exact = MakeResult({{1, 100.0}, {2, 50.0}});
  QueryResult approx = MakeResult({{1, 90.0}});
  auto report =
      CompareAnswers(exact, approx, 0, MissingGroupPolicy::kSkip);
  EXPECT_EQ(report.missing_groups, 1u);
  EXPECT_DOUBLE_EQ(report.linf, 10.0);
  EXPECT_DOUBLE_EQ(report.l1, 10.0);
  // Per-group vector still aligned: missing slot is NaN.
  ASSERT_EQ(report.per_group_errors.size(), 2u);
  EXPECT_TRUE(std::isnan(report.per_group_errors[1]));
}

TEST(MetricsTest, ExtraGroupsCounted) {
  QueryResult exact = MakeResult({{1, 100.0}});
  QueryResult approx = MakeResult({{1, 100.0}, {9, 5.0}});
  auto report = CompareAnswers(exact, approx, 0);
  EXPECT_EQ(report.extra_groups, 1u);
  EXPECT_DOUBLE_EQ(report.linf, 0.0);
}

TEST(MetricsTest, ZeroExactValueConventions) {
  QueryResult exact = MakeResult({{1, 0.0}, {2, 0.0}});
  QueryResult approx = MakeResult({{1, 0.0}, {2, 3.0}});
  auto report = CompareAnswers(exact, approx, 0);
  EXPECT_DOUBLE_EQ(report.per_group_errors[0], 0.0);
  EXPECT_DOUBLE_EQ(report.per_group_errors[1], 100.0);
}

TEST(MetricsTest, NegativeValuesUseAbsoluteRelativeError) {
  QueryResult exact = MakeResult({{1, -100.0}});
  QueryResult approx = MakeResult({{1, -80.0}});
  auto report = CompareAnswers(exact, approx, 0);
  EXPECT_DOUBLE_EQ(report.linf, 20.0);
}

TEST(MetricsTest, SecondAggregateColumn) {
  QueryResult exact;
  exact.Add({Value(int64_t{1})}, {10.0, 200.0});
  exact.SortByKey();
  QueryResult approx;
  approx.Add({Value(int64_t{1})}, {10.0, 100.0});
  approx.SortByKey();
  auto report0 = CompareAnswers(exact, approx, 0);
  auto report1 = CompareAnswers(exact, approx, 1);
  EXPECT_DOUBLE_EQ(report0.linf, 0.0);
  EXPECT_DOUBLE_EQ(report1.linf, 50.0);
}

TEST(MetricsTest, ApproximateResultOverload) {
  QueryResult exact = MakeResult({{1, 100.0}});
  ApproximateResult approx(1, 1);
  approx.Add(GroupKey{Value(int64_t{1})}, 0, GroupProvenance::kSampled)[0] =
      110.0;
  auto report = CompareAnswers(exact, approx, 0);
  EXPECT_DOUBLE_EQ(report.linf, 10.0);
}

TEST(MetricsTest, EmptyExactAnswer) {
  QueryResult exact;
  QueryResult approx = MakeResult({{1, 1.0}});
  auto report = CompareAnswers(exact, approx, 0);
  EXPECT_EQ(report.exact_groups, 0u);
  EXPECT_EQ(report.extra_groups, 1u);
  EXPECT_DOUBLE_EQ(report.l1, 0.0);
}

TEST(MetricsTest, ToStringMentionsNorms) {
  QueryResult exact = MakeResult({{1, 100.0}, {2, 50.0}});
  QueryResult approx = MakeResult({{1, 90.0}});
  auto report = CompareAnswers(exact, approx, 0);
  std::string s = report.ToString();
  EXPECT_NE(s.find("Linf"), std::string::npos);
  EXPECT_NE(s.find("missing"), std::string::npos);
}

}  // namespace
}  // namespace congress
