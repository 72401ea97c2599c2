// Ablation for the end of Section 4.6: the paper claims the alternative
// Congress constructions (exact per-group sizes, Bernoulli per-tuple,
// Eq.-8 per-tuple, and the incremental group-fill pseudocode) differ
// negligibly in practice. This bench builds all four on the same skewed
// relation and compares realized sizes and query errors.

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "core/estimator.h"
#include "sampling/congress_variants.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"

namespace congress {
namespace {

double L1(const Table& base, const StratifiedSample& sample,
          const GroupByQuery& query) {
  auto exact = ExecuteExact(base, query);
  auto approx = EstimateGroupBy(sample, SampleMoments::Compute(sample), query);
  if (!exact.ok() || !approx.ok()) return -1.0;
  return CompareAnswers(*exact, *approx, 0).l1;
}

int Run(int argc, char** argv) {
  bench::PrintHeader(
      "Ablation (Section 4.6): alternative Congress constructions",
      "\"In practice, the difference between these approaches is "
      "negligible\" — all variants should land within noise of each "
      "other on both Qg2 and Qg3");

  tpcd::LineitemConfig defaults;
  defaults.num_tuples = 300'000;
  defaults.group_skew_z = 1.5;
  const tpcd::LineitemConfig config =
      bench::LineitemConfigFromArgs(argc, argv, defaults);
  auto data = tpcd::GenerateLineitem(config);
  if (!data.ok()) {
    std::printf("generation failed: %s\n", data.status().ToString().c_str());
    return 1;
  }
  const Table& base = data->table;
  auto grouping = tpcd::LineitemGroupingColumns();
  const double x = 0.07 * static_cast<double>(base.num_rows());
  const int trials = 3;

  std::printf("T=%zu, X=%.0f, NG=%llu, z=1.5 (avg over %d builds)\n\n",
              base.num_rows(), x,
              static_cast<unsigned long long>(data->realized_num_groups),
              trials);
  std::printf("%-12s %12s %14s %14s %14s\n", "variant", "avg size",
              "build (s)", "Qg2 L1 %", "Qg3 L1 %");

  for (CongressVariant variant :
       {CongressVariant::kExactSize, CongressVariant::kBernoulli,
        CongressVariant::kEq8, CongressVariant::kGroupFill}) {
    double total_size = 0.0;
    double total_qg2 = 0.0;
    double total_qg3 = 0.0;
    double total_build = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      Random rng(17 + trial);
      Stopwatch sw;
      auto sample = BuildCongressVariant(base, grouping, x, variant, &rng);
      total_build += sw.ElapsedSeconds();
      if (!sample.ok()) {
        std::printf("%-12s build failed: %s\n",
                    CongressVariantToString(variant),
                    sample.status().ToString().c_str());
        return 1;
      }
      total_size += static_cast<double>(sample->num_rows());
      total_qg2 += L1(base, *sample, tpcd::MakeQg2());
      total_qg3 += L1(base, *sample, tpcd::MakeQg3());
    }
    std::printf("%-12s %12.0f %14.2f %14.2f %14.2f\n",
                CongressVariantToString(variant), total_size / trials,
                total_build / trials, total_qg2 / trials,
                total_qg3 / trials);
  }
  return 0;
}

}  // namespace
}  // namespace congress

int main(int argc, char** argv) { return congress::Run(argc, argv); }
