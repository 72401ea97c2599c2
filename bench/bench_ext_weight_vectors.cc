// Extension bench (Section 8, Figure 19): the multi-criteria weight-vector
// framework. Adds a per-group variance ("Neyman") weight vector to the
// Congress grouping vectors and measures AVG-query accuracy on data where
// some groups have far higher within-group variance than others.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "core/estimator.h"
#include "sampling/builder.h"
#include "sampling/criteria.h"

namespace congress {
namespace {

/// Builds a relation with 16 equal-sized groups over two attributes where
/// groups with a = 0 have near-constant values and groups with a = 1 have
/// heavy-tailed values (std ~30x larger).
Table MakeVarianceSkewedTable(uint64_t per_group, uint64_t seed) {
  Table t{Schema({Field{"a", DataType::kInt64},
                  Field{"b", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  Random rng(seed);
  for (int64_t a = 0; a < 2; ++a) {
    for (int64_t b = 0; b < 8; ++b) {
      for (uint64_t i = 0; i < per_group; ++i) {
        double v;
        if (a == 0) {
          v = 100.0 + rng.NextDouble();  // Tight.
        } else {
          // Heavy-tailed: exponential-ish via -log(u).
          v = 100.0 * (1.0 - std::log(1.0 - rng.NextDouble() * 0.999));
        }
        (void)t.AppendRow({Value(a), Value(b), Value(v)});
      }
    }
  }
  return t;
}

double AvgQueryL1(const Table& base, const StratifiedSample& sample) {
  GroupByQuery q;
  q.group_columns = {0, 1};
  q.aggregates = {AggregateSpec{AggregateKind::kAvg, 2}};
  auto exact = ExecuteExact(base, q);
  auto approx = EstimateGroupBy(sample, SampleMoments::Compute(sample), q);
  if (!exact.ok() || !approx.ok()) return -1.0;
  return CompareAnswers(*exact, *approx, 0).l1;
}

int Run(int argc, char** argv) {
  bench::PrintHeader(
      "Extension (Section 8 / Figure 19): variance-aware weight vectors",
      "adding a group-variance weight vector to Congress shifts space to "
      "high-variance groups and lowers AVG-query error; plain Congress "
      "wastes space on near-constant groups");

  const uint64_t per_group = bench::ArgOr(argc, argv, "--per-group", 20'000);
  Table base = MakeVarianceSkewedTable(per_group, 42);
  std::vector<size_t> grouping = {0, 1};
  auto census = GroupCensus::Build(base, grouping);
  if (!census.ok()) {
    std::printf("census failed: %s\n", census.status().ToString().c_str());
    return 1;
  }
  const GroupStatistics& stats = census->stats;
  const double x = static_cast<double>(base.num_rows()) * 0.02;

  // Plain Congress (all groups equal-sized, so this is uniform space).
  Allocation plain = AllocateCongress(stats, x);

  // Congress + variance criterion (Figure 19's max-and-rescale over the
  // grouping vectors plus the dispersion vector).
  auto dispersion =
      DispersionWeightVector(base, *census, 2, VarianceCriterion::kStdDev);
  if (!dispersion.ok()) {
    std::printf("criterion failed: %s\n",
                dispersion.status().ToString().c_str());
    return 1;
  }
  auto weighted = AllocateCongressWithCriteria(stats, x, {*dispersion});
  if (!weighted.ok()) {
    std::printf("allocation failed: %s\n",
                weighted.status().ToString().c_str());
    return 1;
  }

  const int trials = 15;
  double plain_err = 0.0;
  double weighted_err = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    Random rng(100 + trial);
    auto s_plain = BuildStratifiedSample(base, *census, plain, &rng);
    auto s_weighted = BuildStratifiedSample(base, *census, *weighted, &rng);
    if (!s_plain.ok() || !s_weighted.ok()) {
      std::printf("build failed\n");
      return 1;
    }
    plain_err += AvgQueryL1(base, *s_plain);
    weighted_err += AvgQueryL1(base, *s_weighted);
  }
  plain_err /= trials;
  weighted_err /= trials;

  // Report space shift.
  double low_var_space = 0.0;
  double high_var_space = 0.0;
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    if (stats.keys()[i][0] == Value(int64_t{0})) {
      low_var_space += weighted->expected_sizes[i];
    } else {
      high_var_space += weighted->expected_sizes[i];
    }
  }

  std::printf("16 equal groups; a=1 groups have ~30x the value std.\n");
  std::printf("space under variance-aware allocation: low-var groups "
              "%.0f, high-var groups %.0f (plain: 50/50)\n",
              low_var_space, high_var_space);
  std::printf("\n%-28s %16s\n", "allocation", "AVG L1 error %%");
  std::printf("%-28s %16.3f\n", "Congress (plain)", plain_err);
  std::printf("%-28s %16.3f\n", "Congress + variance vector", weighted_err);
  return 0;
}

}  // namespace
}  // namespace congress

int main(int argc, char** argv) { return congress::Run(argc, argv); }
