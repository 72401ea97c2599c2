// Figure 18: rewrite-strategy query time vs. number of groups at SP = 7%.
// The paper sweeps 10 - 200K groups; each NG re-generates the relation
// with d = round(NG^(1/3)) distinct values per grouping column.

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
      "Figure 18: rewrite-strategy query time vs. group count (Qg2, "
      "SP = 7%)",
      "Integrated-family nearly flat and fastest; Normalized-family "
      "slower (per-query join); Nested-Integrated degrades toward "
      "Integrated as groups increase");

  const uint64_t tuples = bench::ArgOr(argc, argv, "--tuples", 1'000'000);
  const std::vector<uint64_t> group_counts = {10, 100, 1000, 10'000,
                                              50'000, 200'000};
  const std::vector<std::pair<const char*, RewriteStrategy>> strategies = {
      {"Integrated", RewriteStrategy::kIntegrated},
      {"Nested-integrated", RewriteStrategy::kNestedIntegrated},
      {"Normalized", RewriteStrategy::kNormalized},
      {"Key-normalized", RewriteStrategy::kKeyNormalized}};

  std::printf("%-10s %10s", "NG(req)", "realized");
  for (const auto& [name, strategy] : strategies) std::printf(" %18s", name);
  std::printf("   (ms per Qg2)\n");

  GroupByQuery qg2 = tpcd::MakeQg2();
  for (uint64_t ng : group_counts) {
    // The generator gives every realized group at least one tuple.
    const uint64_t realized = tpcd::RealizedGroupCount(ng);
    if (realized > tuples) {
      std::printf("%-10llu %10llu   skipped: more groups than --tuples\n",
                  static_cast<unsigned long long>(ng),
                  static_cast<unsigned long long>(realized));
      continue;
    }
    tpcd::LineitemConfig config;
    config.num_tuples = tuples;
    config.num_groups = ng;
    config.group_skew_z = 0.86;
    config.seed = 42;
    auto data = tpcd::GenerateLineitem(config);
    if (!data.ok()) {
      std::printf("generation failed at NG=%llu: %s\n",
                  static_cast<unsigned long long>(ng),
                  data.status().ToString().c_str());
      return 1;
    }
    SynopsisConfig sconfig;
    sconfig.strategy = AllocationStrategy::kCongress;
    sconfig.sample_fraction = 0.07;
    sconfig.grouping_columns = tpcd::LineitemGroupingColumnNames();
    sconfig.seed = 7;
    auto synopsis = AquaSynopsis::Build(data->table, sconfig);
    if (!synopsis.ok()) {
      std::printf("build failed: %s\n", synopsis.status().ToString().c_str());
      return 1;
    }
    // Materialized once, outside the timing, as in Table 3.
    const Rewriter rewriter(synopsis->sample());
    std::printf("%-10llu %10llu", static_cast<unsigned long long>(ng),
                static_cast<unsigned long long>(data->realized_num_groups));
    for (const auto& [name, strategy] : strategies) {
      double t = bench::MeasureSeconds([&] {
        auto result = rewriter.Answer(qg2, strategy);
        (void)result;
      });
      std::printf(" %18.2f", 1e3 * t);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace congress

int main(int argc, char** argv) { return congress::Run(argc, argv); }
