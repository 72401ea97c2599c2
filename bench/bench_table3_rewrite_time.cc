// Table 3: execution time of the four query-rewriting strategies for Qg2
// at sample percentages 1% / 5% / 10% with NG = 1000 groups, compared to
// running the query on the full data. Times follow the paper's protocol:
// five runs, first discarded, remainder averaged.

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "core/rewriter.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"

namespace congress {
namespace {

int Run(int argc, char** argv) {
  bench::PrintHeader(
      "Table 3: rewrite-strategy execution times vs. sample percentage "
      "(Qg2, NG = 1000)",
      "Integrated-family beats Normalized-family; Normalized times grow "
      "steeply with sample size (per-query join); Nested-Integrated edges "
      "Integrated at this group count");

  const tpcd::LineitemConfig config =
      bench::LineitemConfigFromArgs(argc, argv);
  auto data = tpcd::GenerateLineitem(config);
  if (!data.ok()) {
    std::printf("generation failed: %s\n", data.status().ToString().c_str());
    return 1;
  }
  const Table& base = data->table;
  GroupByQuery qg2 = tpcd::MakeQg2();

  double full_time = bench::MeasureSeconds([&] {
    auto result = ExecuteExact(base, qg2);
    (void)result;
  });
  std::printf("full-data query time: %.1f ms (T=%zu)\n\n", 1e3 * full_time,
              base.num_rows());

  const std::vector<double> sample_percents = {0.01, 0.05, 0.10};
  const std::vector<std::pair<const char*, RewriteStrategy>> strategies = {
      {"Integrated", RewriteStrategy::kIntegrated},
      {"Nested-integrated", RewriteStrategy::kNestedIntegrated},
      {"Normalized", RewriteStrategy::kNormalized},
      {"Key-normalized", RewriteStrategy::kKeyNormalized}};

  std::printf("%-18s", "technique");
  for (double sp : sample_percents) std::printf(" %11.0f%%", 100.0 * sp);
  std::printf("   (ms per query)\n");

  std::vector<std::vector<double>> times(strategies.size());
  for (double sp : sample_percents) {
    SynopsisConfig sconfig;
    sconfig.strategy = AllocationStrategy::kCongress;
    sconfig.sample_fraction = sp;
    sconfig.grouping_columns = tpcd::LineitemGroupingColumnNames();
    sconfig.seed = 7;
    auto synopsis = AquaSynopsis::Build(base, sconfig);
    if (!synopsis.ok()) {
      std::printf("build failed: %s\n", synopsis.status().ToString().c_str());
      return 1;
    }
    // The plans' relations are materialized once, outside the timing:
    // the paper times the per-query cost of precomputed relations.
    const Rewriter rewriter(synopsis->sample());
    for (size_t s = 0; s < strategies.size(); ++s) {
      double t = bench::MeasureSeconds([&] {
        auto result = rewriter.Answer(qg2, strategies[s].second);
        (void)result;
      });
      times[s].push_back(1e3 * t);
    }
  }
  for (size_t s = 0; s < strategies.size(); ++s) {
    std::printf("%-18s", strategies[s].first);
    for (double t : times[s]) std::printf(" %12.2f", t);
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace congress

int main(int argc, char** argv) { return congress::Run(argc, argv); }
