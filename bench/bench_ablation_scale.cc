// Scale ablation over the paper's Table 1 range: table sizes from 100K to
// 6M tuples. Reports generation, census, allocation, and build times for
// a 7% Congress sample plus Qg2 answer latency — demonstrating the
// laptop-scale feasibility the reproduction relies on.

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "sampling/builder.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"

namespace congress {
namespace {

int Run(int argc, char** argv) {
  bench::PrintHeader(
      "Ablation: scale sweep over the paper's table-size range "
      "(100K - 6M tuples)",
      "build cost grows linearly with T; query cost grows with the "
      "sample, not the base relation");

  const uint64_t max_tuples =
      bench::ArgOr(argc, argv, "--max-tuples", 6'000'000);
  std::vector<uint64_t> sizes = {100'000, 500'000, 1'000'000, 3'000'000,
                                 6'000'000};
  while (!sizes.empty() && sizes.back() > max_tuples) sizes.pop_back();

  std::printf("%-10s %10s %10s %10s %12s %12s %12s\n", "T", "gen (s)",
              "census(s)", "build (s)", "sample", "approx(ms)",
              "exact (ms)");
  for (uint64_t t : sizes) {
    tpcd::LineitemConfig config;
    config.num_tuples = t;
    config.num_groups = 1000;
    config.group_skew_z = 0.86;
    config.seed = 42;

    Stopwatch gen_sw;
    auto data = tpcd::GenerateLineitem(config);
    double gen_s = gen_sw.ElapsedSeconds();
    if (!data.ok()) {
      std::printf("generation failed at T=%llu\n",
                  static_cast<unsigned long long>(t));
      return 1;
    }
    const Table& base = data->table;
    auto grouping = tpcd::LineitemGroupingColumns();

    Stopwatch census_sw;
    auto census = GroupCensus::Build(base, grouping);
    double census_s = census_sw.ElapsedSeconds();
    if (!census.ok()) {
      std::printf("census failed at T=%llu\n",
                  static_cast<unsigned long long>(t));
      return 1;
    }

    Allocation allocation =
        AllocateCongress(census->stats, 0.07 * static_cast<double>(t));
    Stopwatch build_sw;
    Random rng(7);
    auto sample = BuildStratifiedSample(base, *census, allocation, &rng);
    double build_s = build_sw.ElapsedSeconds();
    if (!sample.ok()) {
      std::printf("build failed at T=%llu\n",
                  static_cast<unsigned long long>(t));
      return 1;
    }

    GroupByQuery qg2 = tpcd::MakeQg2();
    const SampleMoments moments = SampleMoments::Compute(*sample);
    double approx_s = bench::MeasureSeconds([&] {
      auto result = EstimateGroupBy(*sample, moments, qg2);
      (void)result;
    }, 3);
    double exact_s = bench::MeasureSeconds([&] {
      auto result = ExecuteExact(base, qg2);
      (void)result;
    }, 3);

    std::printf("%-10llu %10.2f %10.2f %10.2f %12zu %12.2f %12.2f\n",
                static_cast<unsigned long long>(t), gen_s, census_s,
                build_s, sample->num_rows(), 1e3 * approx_s, 1e3 * exact_s);
  }
  return 0;
}

}  // namespace
}  // namespace congress

int main(int argc, char** argv) { return congress::Run(argc, argv); }
