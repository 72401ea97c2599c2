#include "wavelet/wavelet_synopsis.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "engine/executor.h"

namespace congress {
namespace {

TEST(HaarTransformTest, RoundTripIdentity) {
  std::vector<double> data = {4.0, 2.0, 5.0, 5.0, 7.0, 1.0, 0.0, 3.0};
  std::vector<double> original = data;
  WaveletSynopsis::HaarForward(&data);
  WaveletSynopsis::HaarInverse(&data);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i], original[i], 1e-12);
  }
}

TEST(HaarTransformTest, PreservesEnergy) {
  std::vector<double> data = {1.0, -2.0, 3.5, 0.0};
  double before = 0.0;
  for (double v : data) before += v * v;
  WaveletSynopsis::HaarForward(&data);
  double after = 0.0;
  for (double v : data) after += v * v;
  EXPECT_NEAR(before, after, 1e-12);  // Orthonormal transform.
}

TEST(HaarTransformTest, ConstantVectorSingleCoefficient) {
  std::vector<double> data(8, 5.0);
  WaveletSynopsis::HaarForward(&data);
  EXPECT_NEAR(data[0], 5.0 * std::sqrt(8.0), 1e-12);
  for (size_t i = 1; i < data.size(); ++i) {
    EXPECT_NEAR(data[i], 0.0, 1e-12);
  }
}

Table MakeTable(std::vector<uint64_t> group_sizes) {
  Table t{Schema({Field{"g", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  for (size_t g = 0; g < group_sizes.size(); ++g) {
    for (uint64_t i = 0; i < group_sizes[g]; ++i) {
      EXPECT_TRUE(t.AppendRow({Value(static_cast<int64_t>(g)),
                               Value(static_cast<double>(g + 1))})
                      .ok());
    }
  }
  return t;
}

GroupByQuery CountSumQuery() {
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kCount, 0},
                  AggregateSpec{AggregateKind::kSum, 1},
                  AggregateSpec{AggregateKind::kAvg, 1}};
  return q;
}

TEST(WaveletSynopsisTest, FullBudgetIsExact) {
  Table t = MakeTable({10, 20, 30, 40});
  WaveletSynopsis::Options options;
  options.coefficient_budget = 1000;  // More than enough.
  options.measure_columns = {1};
  auto synopsis = WaveletSynopsis::Build(t, {0}, options);
  ASSERT_TRUE(synopsis.ok());
  auto answer = synopsis->Answer(CountSumQuery());
  auto exact = ExecuteExact(t, CountSumQuery());
  ASSERT_TRUE(answer.ok() && exact.ok());
  for (const ApproximateGroupRow& row : exact->rows()) {
    const auto est = answer->Find(row.key);
    ASSERT_TRUE(est.has_value());
    for (size_t a = 0; a < row.estimates.size(); ++a) {
      EXPECT_NEAR(est->estimates[a], row.estimates[a], 1e-6);
    }
  }
}

TEST(WaveletSynopsisTest, UniformDataCompressesToOneCoefficient) {
  Table t = MakeTable({25, 25, 25, 25, 25, 25, 25, 25});
  WaveletSynopsis::Options options;
  options.coefficient_budget = 2;  // Count DC + sum DC... sums differ per
                                   // group, so only COUNT compresses.
  options.measure_columns = {};
  auto synopsis = WaveletSynopsis::Build(t, {0}, options);
  ASSERT_TRUE(synopsis.ok());
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kCount, 0}};
  auto answer = synopsis->Answer(q);
  ASSERT_TRUE(answer.ok());
  for (const ApproximateGroupRow& row : answer->rows()) {
    EXPECT_NEAR(row.estimates[0], 25.0, 1e-9);
  }
}

TEST(WaveletSynopsisTest, TightBudgetSmearsSkewedGroups) {
  // One huge group among tiny ones with very few coefficients: the
  // reconstruction smears the spike — footnote 4's failure mode.
  std::vector<uint64_t> sizes(16, 5);
  sizes[7] = 2000;
  Table t = MakeTable(sizes);
  WaveletSynopsis::Options options;
  options.coefficient_budget = 2;
  options.measure_columns = {};
  auto synopsis = WaveletSynopsis::Build(t, {0}, options);
  ASSERT_TRUE(synopsis.ok());
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kCount, 0}};
  auto answer = synopsis->Answer(q);
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(answer.ok() && exact.ok());
  auto report = CompareAnswers(*exact, *answer, 0);
  EXPECT_GT(report.l1, 50.0);  // Tiny neighbours inherit spike mass.
}

TEST(WaveletSynopsisTest, MoreCoefficientsMonotonicallyBetter) {
  std::vector<uint64_t> sizes;
  for (int i = 0; i < 32; ++i) {
    sizes.push_back(static_cast<uint64_t>(5 + (i * 37) % 90));
  }
  Table t = MakeTable(sizes);
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kCount, 0}};
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(exact.ok());
  double prev = 1e18;
  for (size_t budget : {4u, 16u, 64u}) {
    WaveletSynopsis::Options options;
    options.coefficient_budget = budget;
    options.measure_columns = {};
    auto synopsis = WaveletSynopsis::Build(t, {0}, options);
    ASSERT_TRUE(synopsis.ok());
    auto answer = synopsis->Answer(q);
    ASSERT_TRUE(answer.ok());
    double error = CompareAnswers(*exact, *answer, 0).l1;
    EXPECT_LE(error, prev + 1e-9) << "budget " << budget;
    prev = error;
  }
  EXPECT_NEAR(prev, 0.0, 1e-6);  // 64 >= 32 coefficients: exact.
}

TEST(WaveletSynopsisTest, RollUpAndStorageAccounting) {
  Table t{Schema({Field{"a", DataType::kInt64},
                  Field{"b", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(a)),
                                 Value(static_cast<int64_t>(b)),
                                 Value(2.0)})
                        .ok());
      }
    }
  }
  WaveletSynopsis::Options options;
  options.coefficient_budget = 100;
  options.measure_columns = {2};
  auto synopsis = WaveletSynopsis::Build(t, {0, 1}, options);
  ASSERT_TRUE(synopsis.ok());
  EXPECT_GT(synopsis->retained_coefficients(), 0u);
  EXPECT_EQ(synopsis->StorageCells(),
            synopsis->retained_coefficients() * 3);
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  auto answer = synopsis->Answer(q);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->num_groups(), 2u);
  for (const ApproximateGroupRow& row : answer->rows()) {
    EXPECT_NEAR(row.estimates[0], 80.0, 1e-6);
  }
}

TEST(WaveletSynopsisTest, Validation) {
  Table t = MakeTable({10, 10});
  WaveletSynopsis::Options options;
  options.coefficient_budget = 0;
  EXPECT_FALSE(WaveletSynopsis::Build(t, {0}, options).ok());
  options.coefficient_budget = 4;
  options.measure_columns = {9};
  EXPECT_FALSE(WaveletSynopsis::Build(t, {0}, options).ok());
  options.measure_columns = {};
  EXPECT_FALSE(WaveletSynopsis::Build(t, {}, options).ok());

  auto synopsis = WaveletSynopsis::Build(t, {0}, options);
  ASSERT_TRUE(synopsis.ok());
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kCount, 0}};
  q.predicate = MakeTruePredicate();
  EXPECT_FALSE(synopsis->Answer(q).ok());
  q.predicate = nullptr;
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 1}};  // Not a measure.
  EXPECT_FALSE(synopsis->Answer(q).ok());
}

}  // namespace
}  // namespace congress
