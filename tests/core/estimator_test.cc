#include "core/estimator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <unordered_map>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "sampling/builder.h"

namespace congress {
namespace {

Schema BaseSchema() {
  return Schema({Field{"g", DataType::kInt64},
                 Field{"h", DataType::kInt64},
                 Field{"v", DataType::kDouble}});
}

/// Deterministic table: group g in {0,1,2} x h in {0,1}; v varies.
Table MakeTable(int per_group = 50) {
  Table t{BaseSchema()};
  int serial = 0;
  for (int g = 0; g < 3; ++g) {
    for (int h = 0; h < 2; ++h) {
      for (int i = 0; i < per_group; ++i) {
        EXPECT_TRUE(t.AppendRow({Value(static_cast<int64_t>(g)),
                                 Value(static_cast<int64_t>(h)),
                                 Value(static_cast<double>(serial++ % 17))})
                        .ok());
      }
    }
  }
  return t;
}

/// Estimates from a sample built for one test, computing its moments.
Result<ApproximateResult> Estimate(const StratifiedSample& sample,
                                   const GroupByQuery& query,
                                   const EstimatorOptions& options = {},
                                   const ExecutorOptions& execution = {}) {
  return EstimateGroupBy(sample, SampleMoments::Compute(sample), query,
                         options, execution);
}

GroupByQuery SumQuery(std::vector<size_t> group_cols) {
  GroupByQuery q;
  q.group_columns = std::move(group_cols);
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2},
                  AggregateSpec{AggregateKind::kCount, 0},
                  AggregateSpec{AggregateKind::kAvg, 2}};
  return q;
}

TEST(EstimatorTest, FullSampleReproducesExactAnswer) {
  Table t = MakeTable();
  Random rng(1);
  // 100% sample: every scale factor is 1, so answers are exact.
  auto sample = BuildSample(t, {0, 1}, AllocationStrategy::kHouse,
                            static_cast<double>(t.num_rows()), &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0});
  auto exact = ExecuteExact(t, q);
  auto approx = Estimate(*sample, q);
  ASSERT_TRUE(exact.ok() && approx.ok());
  ASSERT_EQ(approx->num_groups(), exact->num_groups());
  for (const GroupResult& row : exact->rows()) {
    const auto est = approx->Find(row.key);
    ASSERT_TRUE(est.has_value());
    for (size_t a = 0; a < row.aggregates.size(); ++a) {
      EXPECT_NEAR(est->estimates[a], row.aggregates[a],
                  1e-9 * std::max(1.0, std::fabs(row.aggregates[a])));
      EXPECT_NEAR(est->std_errors[a], 0.0, 1e-9);
    }
  }
}

TEST(EstimatorTest, UnbiasedOverManySamples) {
  Table t = MakeTable();
  GroupByQuery q = SumQuery({0});
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(exact.ok());

  const int trials = 200;
  std::unordered_map<GroupKey, double, GroupKeyHash> sums;
  for (int trial = 0; trial < trials; ++trial) {
    Random rng(1000 + trial);
    auto sample =
        BuildSample(t, {0, 1}, AllocationStrategy::kSenate, 60.0, &rng);
    ASSERT_TRUE(sample.ok());
    auto approx = Estimate(*sample, q);
    ASSERT_TRUE(approx.ok());
    for (const auto& row : approx->rows()) {
      sums[GroupKey(row.key.begin(), row.key.end())] += row.estimates[0];
    }
  }
  for (const GroupResult& row : exact->rows()) {
    double mean = sums[row.key] / trials;
    // SUM over ~17-valued data: allow 5% statistical tolerance.
    EXPECT_NEAR(mean, row.aggregates[0], 0.05 * row.aggregates[0])
        << GroupKeyToString(row.key);
  }
}

TEST(EstimatorTest, CountEstimateMatchesPopulationWithoutPredicate) {
  Table t = MakeTable();
  Random rng(2);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kSenate, 60.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0, 1});
  auto approx = Estimate(*sample, q);
  ASSERT_TRUE(approx.ok());
  // COUNT per finest group with no predicate is n_g exactly (the
  // expansion estimator is deterministic there); each (g, h) group in the
  // fixture has 50 tuples.
  for (const auto& row : approx->rows()) {
    EXPECT_NEAR(row.estimates[1], 50.0, 1e-9);
  }
}

TEST(EstimatorTest, PredicateRestrictsSupport) {
  Table t = MakeTable();
  Random rng(3);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kSenate, 120.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0});
  q.predicate = MakeEqualsPredicate(1, Value(int64_t{0}));
  auto approx = Estimate(*sample, q);
  ASSERT_TRUE(approx.ok());
  GroupByQuery q_all = SumQuery({0});
  auto approx_all = Estimate(*sample, q_all);
  ASSERT_TRUE(approx_all.ok());
  for (const auto& row : approx->rows()) {
    const auto all = approx_all->Find(row.key);
    ASSERT_TRUE(all.has_value());
    EXPECT_LT(row.support, all->support);
    EXPECT_LT(row.estimates[1], all->estimates[1]);
  }
}

TEST(EstimatorTest, BoundsOrdering) {
  Table t = MakeTable();
  Random rng(4);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kCongress, 60.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0});

  EstimatorOptions se;
  se.bound_method = BoundMethod::kStandardError;
  EstimatorOptions cheb;
  cheb.bound_method = BoundMethod::kChebyshev;
  cheb.confidence = 0.90;
  auto r_se = Estimate(*sample, q, se);
  auto r_cheb = Estimate(*sample, q, cheb);
  ASSERT_TRUE(r_se.ok() && r_cheb.ok());
  for (size_t i = 0; i < r_se->rows().size(); ++i) {
    const auto& a = r_se->rows()[i];
    const auto& b = r_cheb->rows()[i];
    for (size_t k = 0; k < a.bounds.size(); ++k) {
      EXPECT_GE(a.bounds[k], 0.0);
      // Chebyshev at 90% multiplies stderr by 1/sqrt(0.1) ~ 3.16.
      EXPECT_NEAR(b.bounds[k], a.bounds[k] / std::sqrt(0.1), 1e-9);
    }
  }
}

TEST(EstimatorTest, HigherConfidenceWidensChebyshev) {
  Table t = MakeTable();
  Random rng(5);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kCongress, 60.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({});
  EstimatorOptions c90;
  c90.confidence = 0.90;
  EstimatorOptions c99;
  c99.confidence = 0.99;
  auto r90 = Estimate(*sample, q, c90);
  auto r99 = Estimate(*sample, q, c99);
  ASSERT_TRUE(r90.ok() && r99.ok());
  EXPECT_GT(r99->rows()[0].bounds[0], r90->rows()[0].bounds[0]);
}

TEST(EstimatorTest, HoeffdingBoundPositiveForSumAndCount) {
  Table t = MakeTable();
  Random rng(6);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kSenate, 60.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0});
  EstimatorOptions hoeff;
  hoeff.bound_method = BoundMethod::kHoeffding;
  auto r = Estimate(*sample, q, hoeff);
  ASSERT_TRUE(r.ok());
  for (const auto& row : r->rows()) {
    EXPECT_GT(row.bounds[0], 0.0);  // SUM.
    EXPECT_GT(row.bounds[1], 0.0);  // COUNT.
  }
}

TEST(EstimatorTest, BoundCoversTruthMostOfTheTime) {
  // With Chebyshev at 90%, the exact answer should fall within the bound
  // in well over half the trials (Chebyshev is conservative).
  Table t = MakeTable();
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  auto exact = ExecuteExact(t, q);
  ASSERT_TRUE(exact.ok());
  int covered = 0;
  int total = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Random rng(2000 + trial);
    auto sample =
        BuildSample(t, {0, 1}, AllocationStrategy::kSenate, 60.0, &rng);
    ASSERT_TRUE(sample.ok());
    auto approx = Estimate(*sample, q);
    ASSERT_TRUE(approx.ok());
    for (const GroupResult& row : exact->rows()) {
      const auto est = approx->Find(row.key);
      ASSERT_TRUE(est.has_value());
      ++total;
      if (std::fabs(est->estimates[0] - row.aggregates[0]) <=
          est->bounds[0]) {
        ++covered;
      }
    }
  }
  EXPECT_GT(static_cast<double>(covered) / total, 0.85);
}

TEST(EstimatorTest, MissingGroupsAbsentFromAnswer) {
  Table t = MakeTable(5);  // Tiny groups.
  Random rng(7);
  // House with a 10% sample leaves some finest groups empty.
  auto sample = BuildSample(t, {0, 1}, AllocationStrategy::kHouse, 3.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0, 1});
  auto approx = Estimate(*sample, q);
  ASSERT_TRUE(approx.ok());
  EXPECT_LT(approx->num_groups(), 6u);
}

TEST(EstimatorTest, RejectsMinMax) {
  Table t = MakeTable();
  Random rng(8);
  auto sample = BuildSample(t, {0, 1}, AllocationStrategy::kHouse, 30.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kMin, 2}};
  EXPECT_FALSE(Estimate(*sample, q).ok());
}

TEST(EstimatorTest, RejectsBadArguments) {
  Table t = MakeTable();
  Random rng(9);
  auto sample = BuildSample(t, {0, 1}, AllocationStrategy::kHouse, 30.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q;
  q.group_columns = {0};
  EXPECT_FALSE(Estimate(*sample, q).ok());  // No aggregates.
  q = SumQuery({99});
  EXPECT_FALSE(Estimate(*sample, q).ok());  // Bad group column.
  q = SumQuery({0});
  EstimatorOptions bad;
  bad.confidence = 1.5;
  EXPECT_FALSE(Estimate(*sample, q, bad).ok());
}

TEST(EstimatorTest, AvgIsRatioOfSumAndCount) {
  Table t = MakeTable();
  Random rng(10);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kCongress, 90.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q = SumQuery({0});
  auto approx = Estimate(*sample, q);
  ASSERT_TRUE(approx.ok());
  for (const auto& row : approx->rows()) {
    EXPECT_NEAR(row.estimates[2], row.estimates[0] / row.estimates[1], 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Naive reference: one pass over the sample rows, one (group, stratum) cell
// per matching row, groups found by a linear == search over first-row
// keys (so NaN keys never merge), strata rolled up in ascending id.
// ---------------------------------------------------------------------------

struct RefCell {
  uint64_t matches = 0;
  double sum_v = 0.0;
  double sum_v2 = 0.0;
  double max_abs = 0.0;
};

struct RefGroup {
  GroupKey key;
  uint64_t support = 0;
  std::map<uint32_t, std::vector<RefCell>> cells;  // stratum -> per agg.
};

double RefVariance(double big_n, double n, double sum_v, double sum_v2) {
  if (n < 2.0) return 0.0;
  const double mean = sum_v / n;
  const double ss = std::max(0.0, sum_v2 - n * mean * mean);
  return big_n * std::max(0.0, big_n - n) * (ss / (n - 1.0)) / n;
}

double RefCovariance(double big_n, double n, double m, double sum_v) {
  if (n < 2.0) return 0.0;
  const double scov = (sum_v - sum_v * m / n) / (n - 1.0);
  return big_n * std::max(0.0, big_n - n) * scov / n;
}

ApproximateResult NaiveEstimate(const StratifiedSample& sample,
                                const GroupByQuery& query,
                                const EstimatorOptions& options) {
  const Table& rows = sample.rows();
  const size_t num_aggs = query.aggregates.size();
  std::vector<RefGroup> groups;
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    GroupKey key = rows.KeyForRow(r, query.group_columns);
    size_t g = 0;
    while (g < groups.size() && !(groups[g].key == key)) ++g;
    if (g == groups.size()) groups.push_back(RefGroup{key, 0, {}});
    const uint32_t stratum = sample.row_strata()[r];
    if (std::find(options.excluded_strata.begin(),
                  options.excluded_strata.end(),
                  stratum) != options.excluded_strata.end()) {
      continue;
    }
    if (query.predicate != nullptr &&
        !query.predicate->Matches(rows, r)) {
      continue;
    }
    groups[g].support += 1;
    std::vector<RefCell>& cells = groups[g].cells[stratum];
    cells.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      const double v = AggregateInput(query.aggregates[a], rows, r);
      cells[a].matches += 1;
      cells[a].sum_v += v;
      cells[a].sum_v2 += v * v;
      cells[a].max_abs = std::max(cells[a].max_abs, std::fabs(v));
    }
  }
  const double cheb = 1.0 / std::sqrt(1.0 - options.confidence);
  const double hoeff_ln = std::log(2.0 / (1.0 - options.confidence)) / 2.0;
  ApproximateResult out(query.group_columns.size(), num_aggs);
  for (const RefGroup& group : groups) {
    if (group.support == 0) continue;
    std::span<double> numbers =
        out.Add(group.key, group.support, GroupProvenance::kSampled);
    for (size_t a = 0; a < num_aggs; ++a) {
      double est_sum = 0, est_cnt = 0, var_sum = 0, var_cnt = 0, cov = 0,
             c2 = 0;
      for (const auto& [stratum, cells] : group.cells) {
        const Stratum& s = sample.strata()[stratum];
        const RefCell& c = cells[a];
        const double sf = s.ScaleFactor();
        const double n = static_cast<double>(s.sample_count);
        const double big_n = static_cast<double>(s.population);
        const double m = static_cast<double>(c.matches);
        est_sum += sf * c.sum_v;
        est_cnt += sf * m;
        var_sum += RefVariance(big_n, n, c.sum_v, c.sum_v2);
        var_cnt += RefVariance(big_n, n, m, m);
        cov += RefCovariance(big_n, n, m, c.sum_v);
        c2 += n * (sf * c.max_abs) * (sf * c.max_abs);
      }
      double est = 0.0;
      double variance = 0.0;
      const AggregateKind kind = query.aggregates[a].kind;
      if (kind == AggregateKind::kSum) {
        est = est_sum;
        variance = var_sum;
      } else if (kind == AggregateKind::kCount) {
        est = est_cnt;
        variance = var_cnt;
      } else if (est_cnt > 0.0) {
        est = est_sum / est_cnt;
        variance = std::max(
            0.0, (var_sum - 2.0 * est * cov + est * est * var_cnt) /
                     (est_cnt * est_cnt));
      }
      const double se = std::sqrt(variance);
      double bound = se;
      if (options.bound_method == BoundMethod::kChebyshev ||
          (options.bound_method == BoundMethod::kHoeffding &&
           kind == AggregateKind::kAvg)) {
        bound = cheb * se;
      } else if (options.bound_method == BoundMethod::kHoeffding) {
        bound = std::sqrt(hoeff_ln * c2);
      }
      numbers[a] = est;
      numbers[num_aggs + a] = se;
      numbers[2 * num_aggs + a] = bound;
    }
  }
  out.FilterHaving(query.having);
  out.SortByKey();
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Keys must match value for value, down to the sign of a zero and NaN.
bool SameKey(std::span<const Value> a, std::span<const Value> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type()) return false;
    if (a[i].is_double() ? !SameBits(a[i].AsDouble(), b[i].AsDouble())
                         : a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

void ExpectNear(std::span<const double> got, std::span<const double> want,
                const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max(std::fabs(got[i]), std::fabs(want[i]));
    EXPECT_LE(std::fabs(got[i] - want[i]), 1e-12 * scale)
        << what << "[" << i << "]: " << got[i] << " vs " << want[i];
  }
}

void ExpectMatchesReference(const ApproximateResult& got,
                            const ApproximateResult& want,
                            const std::string& what) {
  ASSERT_EQ(got.num_groups(), want.num_groups()) << what;
  for (size_t i = 0; i < got.num_groups(); ++i) {
    const ApproximateGroupRow g = got.row(i);
    const ApproximateGroupRow w = want.row(i);
    ASSERT_TRUE(SameKey(g.key, w.key))
        << what << " row " << i << ": " << GroupKeyToString(g.key) << " vs "
        << GroupKeyToString(w.key);
    EXPECT_EQ(g.support, w.support) << what << " row " << i;
    ExpectNear(g.estimates, w.estimates, what + " estimates");
    ExpectNear(g.std_errors, w.std_errors, what + " std_errors");
    ExpectNear(g.bounds, w.bounds, what + " bounds");
  }
}

void ExpectBitIdentical(const ApproximateResult& a, const ApproximateResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.num_groups(), b.num_groups()) << what;
  for (size_t i = 0; i < a.num_groups(); ++i) {
    const ApproximateGroupRow x = a.row(i);
    const ApproximateGroupRow y = b.row(i);
    ASSERT_TRUE(SameKey(x.key, y.key)) << what << " row " << i;
    EXPECT_EQ(x.support, y.support) << what;
    for (size_t k = 0; k < x.estimates.size(); ++k) {
      EXPECT_TRUE(SameBits(x.estimates[k], y.estimates[k])) << what;
      EXPECT_TRUE(SameBits(x.std_errors[k], y.std_errors[k])) << what;
      EXPECT_TRUE(SameBits(x.bounds[k], y.bounds[k])) << what;
    }
  }
}

/// g0 int64, g1 string, g2 double holding both zeros (the grouping
/// columns); x double with NaN and both zeros, y int64 (non-grouping);
/// v double and w int64 to aggregate.
Table RandomTable(uint64_t seed, size_t n) {
  Table t{Schema({Field{"g0", DataType::kInt64},
                  Field{"g1", DataType::kString},
                  Field{"g2", DataType::kDouble},
                  Field{"x", DataType::kDouble},
                  Field{"y", DataType::kInt64},
                  Field{"v", DataType::kDouble},
                  Field{"w", DataType::kInt64}})};
  Random rng(seed);
  const char* strings[] = {"ant", "bee", "cat", "dog"};
  const double g2_values[] = {-0.0, 0.0, 1.5, 2.5};
  const double x_values[] = {std::nan(""), -0.0, 0.0, 1.0, 2.0, -3.0};
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(
        t.AppendRow({Value(static_cast<int64_t>(rng.UniformInt(5))),
                     Value(strings[rng.UniformInt(4)]),
                     Value(g2_values[rng.UniformInt(4)]),
                     Value(x_values[rng.UniformInt(6)]),
                     Value(static_cast<int64_t>(rng.UniformInt(10))),
                     Value((rng.NextDouble() - 0.3) * 100.0),
                     Value(static_cast<int64_t>(rng.UniformInt(1000)) - 200)})
            .ok());
  }
  return t;
}

TEST(EstimatorReferenceTest, RandomTablesMatchNaiveReference) {
  // Covered sets (subsets of the grouping columns, in any order, with a
  // repeat) fold per stratum; the rest add a non-grouping column (NaN
  // and signed-zero keys) and fold per finer unit.
  const std::vector<std::vector<size_t>> group_sets = {
      {}, {0}, {1}, {2}, {2, 0}, {0, 1, 2}, {2, 1, 0}, {0, 0},
      {3}, {4}, {0, 3}, {3, 2}, {1, 4}};
  const std::vector<AggregateSpec> aggregates = {
      {AggregateKind::kSum, 5}, {AggregateKind::kCount, 0},
      {AggregateKind::kAvg, 5}, {AggregateKind::kSum, 6},
      {AggregateKind::kAvg, 6}};
  const std::vector<PredicatePtr> predicates = {
      nullptr, MakeRangePredicate(5, 0.0, 1e9), MakeLessEqualPredicate(4, 5.0)};
  for (uint64_t seed : {1u, 2u}) {
    Table t = RandomTable(seed, 600);
    Random rng(seed * 31);
    auto sample =
        BuildSample(t, {0, 1, 2}, AllocationStrategy::kCongress, 180.0, &rng);
    ASSERT_TRUE(sample.ok());
    const SampleMoments moments = SampleMoments::Compute(*sample);
    for (const std::vector<size_t>& columns : group_sets) {
      for (size_t p = 0; p < predicates.size(); ++p) {
        for (int variant = 0; variant < 3; ++variant) {
          GroupByQuery q;
          q.group_columns = columns;
          q.aggregates = aggregates;
          q.predicate = predicates[p];
          EstimatorOptions options;
          options.bound_method = static_cast<BoundMethod>(variant);
          if (variant == 1) {
            q.having = {HavingCondition{1, CompareOp::kGt, 40.0}};
          }
          if (variant == 2) options.excluded_strata = {0, 3, 5};
          std::string what = "seed " + std::to_string(seed) + " cols " +
                             std::to_string(columns.size()) + " pred " +
                             std::to_string(p) + " variant " +
                             std::to_string(variant);
          auto got = EstimateGroupBy(*sample, moments, q, options);
          ASSERT_TRUE(got.ok()) << what;
          ExpectMatchesReference(*got, NaiveEstimate(*sample, q, options),
                                 what);
        }
      }
    }
  }
}

TEST(EstimatorReferenceTest, BitIdenticalAcrossThreadCounts) {
  Table t = RandomTable(3, 3000);
  Random rng(9);
  auto sample =
      BuildSample(t, {0, 1, 2}, AllocationStrategy::kSenate, 900.0, &rng);
  ASSERT_TRUE(sample.ok());
  const SampleMoments moments = SampleMoments::Compute(*sample);
  for (const std::vector<size_t>& columns :
       std::vector<std::vector<size_t>>{{0}, {0, 1, 2}, {3}, {1, 4}}) {
    GroupByQuery q;
    q.group_columns = columns;
    q.aggregates = {{AggregateKind::kSum, 5},
                    {AggregateKind::kCount, 0},
                    {AggregateKind::kAvg, 6}};
    q.predicate = MakeRangePredicate(5, -10.0, 1e9);
    EstimatorOptions options;
    options.excluded_strata = {1};
    auto serial = EstimateGroupBy(*sample, moments, q, options);
    ASSERT_TRUE(serial.ok());
    for (size_t threads : {4u, 8u}) {
      ExecutorOptions execution;
      execution.num_threads = threads;
      execution.morsel_size = 64;
      auto parallel = EstimateGroupBy(*sample, moments, q, options, execution);
      ASSERT_TRUE(parallel.ok());
      ExpectBitIdentical(*serial, *parallel,
                         std::to_string(threads) + " threads");
    }
  }
}

/// One stratum declared with +0.0 whose first sample row holds -0.0.
StratifiedSample SignedZeroSample() {
  StratifiedSample sample(Schema({Field{"k", DataType::kDouble},
                                  Field{"x", DataType::kDouble},
                                  Field{"v", DataType::kDouble}}),
                          {0});
  EXPECT_TRUE(sample.DeclareStratum({Value(0.0)}, 40).ok());
  EXPECT_TRUE(sample.DeclareStratum({Value(7.0)}, 10).ok());
  // Rows (k, x, v).
  for (const std::vector<double>& row :
       std::vector<std::vector<double>>{{7.0, -0.0, 1.0},
                                        {-0.0, 0.0, -5.0},
                                        {0.0, -0.0, 2.0},
                                        {0.0, 0.0, 3.0}}) {
    EXPECT_TRUE(
        sample.AppendRowValues({Value(row[0]), Value(row[1]), Value(row[2])})
            .ok());
  }
  return sample;
}

TEST(EstimatorReferenceTest, SignedZeroKeyComesFromFirstSampleRow) {
  const StratifiedSample sample = SignedZeroSample();
  ASSERT_FALSE(std::signbit(sample.strata()[0].key[0].AsDouble()));
  // The predicate rejects the zero group's first sample row; the key
  // still comes from that row. Without it, the covered query is answered
  // from the moments, and the key still comes from that row.
  for (PredicatePtr predicate : {MakeRangePredicate(2, 0.0, 10.0),
                                 PredicatePtr()}) {
    for (size_t column : {0u, 1u}) {  // Covered, then uncovered.
      GroupByQuery q;
      q.group_columns = {column};
      q.aggregates = {{AggregateKind::kSum, 2}, {AggregateKind::kCount, 0}};
      q.predicate = predicate;
      const std::string what = "column " + std::to_string(column) +
                               (predicate ? " ranged" : " predicate-free");
      auto got = Estimate(sample, q);
      ASSERT_TRUE(got.ok()) << what;
      ExpectMatchesReference(*got, NaiveEstimate(sample, q, {}), what);
      const auto zero = got->Find({Value(0.0)});
      ASSERT_TRUE(zero.has_value()) << what;
      EXPECT_TRUE(std::signbit(zero->key[0].AsDouble())) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// The moments path: a predicate-free query on grouping columns over
// COUNT(*) and plain columns reads each stratum's moments instead of its
// rows, bit-identically to the row fold.
// ---------------------------------------------------------------------------

/// TRUE, behind a type the estimator cannot see through: the query it
/// filters is answered by folding the sample rows.
class OpaqueTrue final : public Predicate {
 public:
  bool Matches(const Table&, size_t) const override { return true; }
  std::string ToString(const Schema*) const override { return "TRUE"; }
};

/// Answers `q` (no predicate) from the moments and again through the row
/// fold, and demands identical bits; both must match the naive reference.
void ExpectMomentsMatchRowFold(const StratifiedSample& sample,
                               const GroupByQuery& q,
                               const EstimatorOptions& options,
                               const std::string& what) {
  ASSERT_EQ(q.predicate, nullptr) << what;
  const SampleMoments moments = SampleMoments::Compute(sample);
  GroupByQuery folded = q;
  folded.predicate = std::make_shared<OpaqueTrue>();
  auto from_moments = EstimateGroupBy(sample, moments, q, options);
  auto from_rows = EstimateGroupBy(sample, moments, folded, options);
  ASSERT_TRUE(from_moments.ok()) << what << from_moments.status().ToString();
  ASSERT_TRUE(from_rows.ok()) << what << from_rows.status().ToString();
  ExpectBitIdentical(*from_moments, *from_rows, what);
  ExpectMatchesReference(*from_moments, NaiveEstimate(sample, q, options),
                         what);
}

TEST(MomentsPathTest, PredicateFreeCoveredQueryReadsNoSampleRow) {
#ifdef CONGRESS_DISABLE_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  Table t = RandomTable(4, 2000);
  Random rng(4);
  auto sample =
      BuildSample(t, {0, 1, 2}, AllocationStrategy::kCongress, 500.0, &rng);
  ASSERT_TRUE(sample.ok());
  const SampleMoments moments = SampleMoments::Compute(*sample);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  auto counter = [&registry](const char* name) {
    return registry.GetCounter(name).value();
  };
  GroupByQuery q;
  q.group_columns = {0, 2};
  q.aggregates = {{AggregateKind::kSum, 5},
                  {AggregateKind::kCount, 0},
                  {AggregateKind::kAvg, 6}};

  const uint64_t eval_rows = counter("kernels.eval.rows");
  const uint64_t match_batches = counter("kernels.match.batches");
  obs::Scope free_trace("query");
  ExecutorOptions execution;
  execution.scope = &free_trace;
  ASSERT_TRUE(EstimateGroupBy(*sample, moments, q, {}, execution).ok());
  EXPECT_EQ(counter("kernels.eval.rows"), eval_rows);
  EXPECT_EQ(counter("kernels.match.batches"), match_batches);
  EXPECT_EQ(free_trace.Find("estimate/eval_batch"), nullptr);
  EXPECT_EQ(free_trace.Find("estimate/match_batch"), nullptr);
  EXPECT_NE(free_trace.Find("estimate/rollup"), nullptr);

  q.predicate = MakeRangePredicate(5, 0.0, 1e9);
  obs::Scope ranged_trace("query");
  execution.scope = &ranged_trace;
  ASSERT_TRUE(EstimateGroupBy(*sample, moments, q, {}, execution).ok());
  EXPECT_GT(counter("kernels.eval.rows"), eval_rows);
  EXPECT_GT(counter("kernels.match.batches"), match_batches);
  EXPECT_NE(ranged_trace.Find("estimate/eval_batch"), nullptr);
  EXPECT_EQ(ranged_trace.Find("estimate/rollup"), nullptr);
#endif
}

TEST(MomentsPathTest, CountOnlyWhenEveryNumericColumnGroups) {
  // The only numeric column is a grouping column, so COUNT(*) reads the
  // strata's row counts alone.
  Table t{Schema({Field{"g", DataType::kInt64}, Field{"s", DataType::kString}})};
  const char* names[] = {"x", "y", "z"};
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i % 7), Value(names[i % 3])}).ok());
  }
  Random rng(6);
  auto sample =
      BuildSample(t, {0, 1}, AllocationStrategy::kCongress, 60.0, &rng);
  ASSERT_TRUE(sample.ok());
  for (const std::vector<size_t>& columns :
       std::vector<std::vector<size_t>>{{}, {0}, {1}, {1, 0}}) {
    GroupByQuery q;
    q.group_columns = columns;
    q.aggregates = {{AggregateKind::kCount, 0}};
    ExpectMomentsMatchRowFold(*sample, q, {},
                              std::to_string(columns.size()) + " columns");
  }
}

TEST(MomentsPathTest, GlobalAggregateAndHaving) {
  Table t = RandomTable(5, 1500);
  Random rng(5);
  auto sample =
      BuildSample(t, {0, 1, 2}, AllocationStrategy::kSenate, 400.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q;
  q.aggregates = {{AggregateKind::kSum, 5},
                  {AggregateKind::kCount, 0},
                  {AggregateKind::kAvg, 6}};
  ExpectMomentsMatchRowFold(*sample, q, {}, "global");

  q.group_columns = {1, 0};
  q.having = {HavingCondition{1, CompareOp::kGt, 60.0}};
  for (int method = 0; method < 3; ++method) {
    EstimatorOptions options;
    options.bound_method = static_cast<BoundMethod>(method);
    ExpectMomentsMatchRowFold(*sample, q, options,
                              "HAVING, bound method " +
                                  std::to_string(method));
  }
}

TEST(MomentsPathTest, CombinedPlanTailSkipsExcludedStrata) {
  // A combined plan's sampled tail: outlier strata excluded, no predicate.
  Table t = RandomTable(6, 2000);
  Random rng(6);
  auto sample =
      BuildSample(t, {0, 1, 2}, AllocationStrategy::kCongress, 600.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {{AggregateKind::kSum, 5},
                  {AggregateKind::kCount, 0},
                  {AggregateKind::kAvg, 6}};
  EstimatorOptions options;
  options.bound_method = BoundMethod::kHoeffding;
  for (uint32_t s = 0; s < sample->strata().size(); s += 4) {
    options.excluded_strata.push_back(s);
  }
  ExpectMomentsMatchRowFold(*sample, q, options, "tail");
  auto full = Estimate(*sample, q);
  auto tail = Estimate(*sample, q, options);
  ASSERT_TRUE(full.ok() && tail.ok());
  uint64_t full_support = 0;
  uint64_t tail_support = 0;
  for (const ApproximateGroupRow& row : full->rows()) {
    full_support += row.support;
  }
  for (const ApproximateGroupRow& row : tail->rows()) {
    tail_support += row.support;
  }
  EXPECT_LT(tail_support, full_support);
}

TEST(MomentsPathTest, RejectsMomentsOfAnotherSample) {
  Table t = MakeTable();
  Random rng(2);
  auto sample = BuildSample(t, {0, 1}, AllocationStrategy::kHouse, 60.0, &rng);
  auto other = BuildSample(t, {0}, AllocationStrategy::kHouse, 30.0, &rng);
  ASSERT_TRUE(sample.ok() && other.ok());
  EXPECT_FALSE(EstimateGroupBy(*sample, SampleMoments::Compute(*other),
                               SumQuery({0}))
                   .ok());
}

// ---------------------------------------------------------------------------
// Index-free container: Find must return what a hash index over the rows,
// built in row order with first-insert-wins, returned.
// ---------------------------------------------------------------------------

/// Appends a one-aggregate group with zero-width bounds.
void AddRow(ApproximateResult* result, const GroupKey& key, double estimate) {
  result->Add(key, 0, GroupProvenance::kSampled)[0] = estimate;
}

void ExpectFindMatchesHashIndex(const ApproximateResult& result,
                                const std::vector<GroupKey>& probes) {
  std::unordered_map<GroupKey, size_t, GroupKeyHash> index;
  for (size_t i = 0; i < result.num_groups(); ++i) {
    const std::span<const Value> key = result.row(i).key;
    index.emplace(GroupKey(key.begin(), key.end()), i);
  }
  for (const GroupKey& probe : probes) {
    auto it = index.find(probe);
    const auto got = result.Find(probe);
    if (it == index.end()) {
      EXPECT_FALSE(got.has_value()) << GroupKeyToString(probe);
      continue;
    }
    ASSERT_TRUE(got.has_value()) << GroupKeyToString(probe);
    // The same row: its key lies at the same place in the answer.
    EXPECT_EQ(got->key.data(), result.row(it->second).key.data())
        << GroupKeyToString(probe);
  }
}

TEST(ApproximateResultTest, FindMatchesHashIndexSemantics) {
  const double nan = std::nan("");
  std::vector<GroupKey> probes = {
      {Value(int64_t{1})}, {Value(int64_t{2})}, {Value(int64_t{3})},
      {Value(int64_t{9})}, {Value(0.0)},        {Value(-0.0)},
      {Value(nan)},        {Value("s")},        {}};
  ApproximateResult r(1, 1);
  AddRow(&r, {Value(int64_t{3})}, 3.0);
  AddRow(&r, {Value(int64_t{1})}, 1.0);
  AddRow(&r, {Value(int64_t{3})}, 30.0);  // Duplicate: the first wins.
  AddRow(&r, {Value(-0.0)}, 4.0);
  AddRow(&r, {Value(nan)}, 5.0);
  AddRow(&r, {Value(0.0)}, 6.0);  // Equal to -0.0.
  AddRow(&r, {Value("s")}, 7.0);
  ExpectFindMatchesHashIndex(r, probes);  // Unsorted adds.
  EXPECT_EQ(r.Find({Value(int64_t{3})})->estimates[0], 3.0);
  EXPECT_FALSE(r.Find({Value(nan)}).has_value());
  r.SortByKey();
  ExpectFindMatchesHashIndex(r, probes);
  r.FilterHaving({HavingCondition{0, CompareOp::kNe, 1.0}});
  ExpectFindMatchesHashIndex(r, probes);
  EXPECT_FALSE(r.Find({Value(int64_t{1})}).has_value());

  // A strictly increasing answer binary-searches, before and after HAVING.
  ApproximateResult sorted(1, 1);
  for (int64_t k = 0; k < 50; k += 2) {
    AddRow(&sorted, {Value(k)}, static_cast<double>(k));
  }
  std::vector<GroupKey> int_probes;
  for (int64_t k = -1; k < 52; ++k) int_probes.push_back({Value(k)});
  ExpectFindMatchesHashIndex(sorted, int_probes);
  sorted.FilterHaving({HavingCondition{0, CompareOp::kGt, 20.0}});
  ExpectFindMatchesHashIndex(sorted, int_probes);
  EXPECT_FALSE(sorted.Find({Value(int64_t{20})}).has_value());
  ASSERT_TRUE(sorted.Find({Value(int64_t{22})}).has_value());
}

TEST(ApproximateResultTest, NanInLaterKeyColumnStillFound) {
  // Under operator<, NaN compares unordered: these adjacent keys look
  // strictly increasing, yet binary search for (5, 0) would miss it. A
  // NaN anywhere in a key therefore forces the linear scan.
  const double nan = std::nan("");
  ApproximateResult r(2, 1);
  AddRow(&r, {Value(5.0), Value(int64_t{0})}, 1.0);
  AddRow(&r, {Value(nan), Value(int64_t{1})}, 2.0);
  AddRow(&r, {Value(3.0), Value(int64_t{2})}, 3.0);
  AddRow(&r, {Value(4.0), Value(int64_t{3})}, 4.0);
  ExpectFindMatchesHashIndex(r, {{Value(5.0), Value(int64_t{0})},
                                 {Value(3.0), Value(int64_t{2})},
                                 {Value(4.0), Value(int64_t{3})},
                                 {Value(nan), Value(int64_t{1})}});
  ASSERT_TRUE(r.Find({Value(5.0), Value(int64_t{0})}).has_value());
}

TEST(ApproximateResultTest, FindAndSort) {
  ApproximateResult r(1, 1);
  AddRow(&r, {Value(int64_t{2})}, 1.0);
  AddRow(&r, {Value(int64_t{1})}, 2.0);
  r.SortByKey();
  EXPECT_EQ(r.rows()[0].key[0], Value(int64_t{1}));
  ASSERT_TRUE(r.Find({Value(int64_t{2})}).has_value());
  EXPECT_FALSE(r.Find({Value(int64_t{3})}).has_value());
  QueryResult qr = r.ToQueryResult();
  EXPECT_EQ(qr.num_groups(), 2u);
}

// ---------------------------------------------------------------------------
// Flat layout: every group's key values, numbers, support and provenance
// move together.
// ---------------------------------------------------------------------------

GroupProvenance TagProvenance(double tag) {
  return tag > 2.5 ? GroupProvenance::kExact : GroupProvenance::kSampled;
}

/// Appends a two-aggregate group whose numbers all derive from `tag`.
void AddTagged(ApproximateResult* result, const GroupKey& key, double tag) {
  std::span<double> numbers =
      result->Add(key, static_cast<uint64_t>(tag), TagProvenance(tag));
  for (size_t i = 0; i < numbers.size(); ++i) numbers[i] = tag + 0.125 * i;
}

/// The group carries the numbers AddTagged gave it for `tag`.
void ExpectTagged(const ApproximateGroupRow& row, double tag) {
  ASSERT_EQ(row.estimates.size(), 2u);
  EXPECT_EQ(row.estimates[0], tag);
  EXPECT_EQ(row.estimates[1], tag + 0.125);
  EXPECT_EQ(row.std_errors[0], tag + 0.25);
  EXPECT_EQ(row.std_errors[1], tag + 0.375);
  EXPECT_EQ(row.bounds[0], tag + 0.5);
  EXPECT_EQ(row.bounds[1], tag + 0.625);
  EXPECT_EQ(row.support, static_cast<uint64_t>(tag));
  EXPECT_EQ(row.provenance, TagProvenance(tag));
}

TEST(ApproximateResultTest, SortByKeyMovesEachGroupWhole) {
  // Two-column keys mixing strings, signed zeros and a NaN; the order
  // must be the one std::sort gives GroupKeys.
  const double nan = std::nan("");
  const std::vector<GroupKey> keys = {
      {Value("west"), Value(1.0)},
      {Value("east"), Value(-0.0)},
      {Value("east"), Value(nan)},
      {Value(""), Value(2.0)},
      {Value("east"), Value(-1.0)},
      {Value("a long string key"), Value(0.0)},
  };
  ApproximateResult r(2, 2);
  for (size_t i = 0; i < keys.size(); ++i) {
    AddTagged(&r, keys[i], static_cast<double>(i));
  }
  EXPECT_FALSE(r.searchable());
  std::vector<size_t> want(keys.size());
  for (size_t i = 0; i < want.size(); ++i) want[i] = i;
  auto key_less = [&keys](size_t a, size_t b) { return keys[a] < keys[b]; };
  std::sort(want.begin(), want.end(), key_less);
  r.SortByKey();
  ASSERT_EQ(r.num_groups(), keys.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const ApproximateGroupRow row = r.row(i);
    EXPECT_TRUE(SameKey(row.key, keys[want[i]])) << i;
    ExpectTagged(row, static_cast<double>(want[i]));
  }
  // The NaN key is never found; the others are, numbers and all.
  EXPECT_FALSE(r.Find({Value("east"), Value(nan)}).has_value());
  const auto zero =
      r.Find({Value("east"), Value(0.0)});
  ASSERT_TRUE(zero.has_value());
  EXPECT_TRUE(std::signbit(zero->key[1].AsDouble()));
  ExpectTagged(*zero, 1.0);
}

TEST(ApproximateResultTest, FilterHavingCompactsStringKeyedGroups) {
  ApproximateResult r(1, 2);
  const std::vector<std::string> names = {
      "alpha",
      "a much longer name",
      "gamma",
      "delta",
      "epsilon",
  };
  for (size_t i = 0; i < names.size(); ++i) {
    AddTagged(&r, {Value(names[i])}, static_cast<double>(i));
  }
  const std::vector<HavingCondition> even_tags = {
      HavingCondition{0, CompareOp::kNe, 1.0},
      HavingCondition{0, CompareOp::kNe, 3.0},
  };
  r.FilterHaving(even_tags);
  ASSERT_EQ(r.num_groups(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.row(i).key[0].AsString(), names[2 * i]);
    ExpectTagged(r.row(i), static_cast<double>(2 * i));
  }
  ASSERT_TRUE(r.Find({Value("epsilon")}).has_value());
  EXPECT_FALSE(r.Find({Value("delta")}).has_value());
}

TEST(ApproximateResultTest, WidenBoundsScalesErrorsNotEstimates) {
  ApproximateResult r(1, 2);
  AddTagged(&r, {Value(int64_t{1})}, 1.0);
  AddTagged(&r, {Value(int64_t{2})}, 2.0);
  r.WidenBounds(2.0);
  for (size_t i = 0; i < 2; ++i) {
    const ApproximateGroupRow row = r.row(i);
    const double tag = static_cast<double>(i + 1);
    EXPECT_EQ(row.estimates[0], tag);
    EXPECT_EQ(row.estimates[1], tag + 0.125);
    EXPECT_EQ(row.std_errors[0], 2.0 * (tag + 0.25));
    EXPECT_EQ(row.std_errors[1], 2.0 * (tag + 0.375));
    EXPECT_EQ(row.bounds[0], 2.0 * (tag + 0.5));
    EXPECT_EQ(row.bounds[1], 2.0 * (tag + 0.625));
  }
}

TEST(ApproximateResultTest, ZeroKeyWidthHoldsTheSingleGroup) {
  // No GROUP BY: one group with an empty key.
  ApproximateResult r(0, 2);
  AddTagged(&r, {}, 3.0);
  EXPECT_TRUE(r.searchable());
  ASSERT_TRUE(r.Find(GroupKey{}).has_value());
  EXPECT_TRUE(r.Find(GroupKey{})->key.empty());
  ExpectTagged(*r.Find(GroupKey{}), 3.0);

  // The estimator answers a query without group columns the same way.
  const Table t = MakeTable();
  Random rng(3);
  auto sample = BuildSample(t, {0}, AllocationStrategy::kSenate, 60.0, &rng);
  ASSERT_TRUE(sample.ok());
  GroupByQuery q;
  q.aggregates = {{AggregateKind::kSum, 2}, {AggregateKind::kCount, 0}};
  auto got = Estimate(*sample, q);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->key_width(), 0u);
  EXPECT_EQ(got->num_aggregates(), 2u);
  ASSERT_EQ(got->num_groups(), 1u);
  EXPECT_TRUE(got->row(0).key.empty());
  EXPECT_EQ(got->row(0).support, sample->num_rows());
}

TEST(ApproximateResultTest, MovedFromResultIsEmptyAndReusable) {
  const double nan = std::nan("");
  ApproximateResult r(1, 2);
  AddTagged(&r, {Value(nan)}, 0.0);
  AddTagged(&r, {Value(int64_t{7})}, 1.0);
  ApproximateResult moved = std::move(r);
  ASSERT_EQ(moved.num_groups(), 2u);
  ExpectTagged(moved.row(1), 1.0);
  // The moved-from answer is what is under test.
  EXPECT_EQ(r.num_groups(), 0u);
  EXPECT_TRUE(r.rows().empty());
  EXPECT_FALSE(r.Find({Value(int64_t{7})}).has_value());
  // Refilled, it is an answer like any other: searchable again once its
  // NaN key is gone.
  AddTagged(&r, {Value(int64_t{1})}, 2.0);
  AddTagged(&r, {Value(int64_t{2})}, 3.0);
  EXPECT_TRUE(r.searchable());
  ASSERT_TRUE(r.Find({Value(int64_t{2})}).has_value());
  ExpectTagged(*r.Find({Value(int64_t{2})}), 3.0);
}

}  // namespace
}  // namespace congress
