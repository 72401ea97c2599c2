// Baseline comparison (Sections 1, 9 and footnote 4 of the paper):
// precomputed congressional samples vs.
//   * Online Aggregation [HHW97], uniform random-order scan;
//   * Online Aggregation with index striding (the paper's cited fix for
//     group-bys — fair rates per group, but query-time base access);
//   * histogram and wavelet synopses (footnote 4: "histograms and
//     wavelets suffer from this same general problem" on skewed groups).
// All contenders get the same tuple budget (7% of the relation); the
// histogram/wavelet get at least as many storage cells as the sample.

#include <cstdio>

#include "bench/common.h"
#include "histogram/group_histogram.h"
#include "online/online_agg.h"
#include "wavelet/wavelet_synopsis.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"

namespace congress {
namespace {

int Run(int argc, char** argv) {
  bench::PrintHeader(
      "Extension: congressional samples vs. the baselines the paper "
      "discusses (Qg3 under z = 1.5 skew, equal 7% budget)",
      "uniform OLA and the histogram starve small groups; index striding "
      "matches Senate-quality but must scan base data per query; the "
      "precomputed Congress sample is competitive with zero query-time "
      "base access");

  const uint64_t tuples = bench::ArgOr(argc, argv, "--tuples", 500'000);
  // Three regimes. NG = 1000: the 7% budget clears the footnote-7
  // coverage bound and the group cube even fits inside the budget, so
  // cube synopses (histogram/wavelet) can be exact. NG ~ 10K: the budget
  // drops below comfortable coverage. NG ~ 200K: the cube itself
  // outgrows the budget — the regime where all footnote-4 synopses must
  // smear the tail.
  for (uint64_t ng : {uint64_t{1000}, uint64_t{10'000}, uint64_t{200'000}}) {
  if (ng >= tuples) continue;
  tpcd::LineitemConfig config;
  config.num_tuples = tuples;
  config.num_groups = ng;
  config.group_skew_z = 1.5;
  config.seed = 42;
  auto data = tpcd::GenerateLineitem(config);
  if (!data.ok()) {
    std::printf("generation failed: %s\n", data.status().ToString().c_str());
    return 1;
  }
  const Table& base = data->table;
  GroupByQuery qg3 = tpcd::MakeQg3();
  auto exact = ExecuteExact(base, qg3);
  if (!exact.ok()) return 1;
  const uint64_t budget = base.num_rows() * 7 / 100;
  std::printf("T=%zu, NG=%llu, budget=%llu tuples\n\n", base.num_rows(),
              static_cast<unsigned long long>(data->realized_num_groups),
              static_cast<unsigned long long>(budget));

  std::printf("%-34s %10s %10s %12s %16s\n", "method", "L1 %", "Linf %",
              "missing", "base access");

  auto report_row = [&](const char* name, const ApproximateResult& answer,
                        const char* access) {
    auto report = CompareAnswers(*exact, answer, 0);
    std::printf("%-34s %10.2f %10.1f %12zu %16s\n", name, report.l1,
                report.linf, report.missing_groups, access);
  };

  // 1. Precomputed Congress sample.
  {
    SynopsisConfig sconfig;
    sconfig.strategy = AllocationStrategy::kCongress;
    sconfig.sample_size = budget;
    sconfig.grouping_columns = tpcd::LineitemGroupingColumnNames();
    sconfig.seed = 7;
    auto synopsis = AquaSynopsis::Build(base, sconfig);
    if (!synopsis.ok()) return 1;
    auto answer = synopsis->Answer(qg3);
    if (!answer.ok()) return 1;
    report_row("Congress sample (precomputed)", *answer, "none");
  }
  // 1b. House for reference.
  {
    SynopsisConfig sconfig;
    sconfig.strategy = AllocationStrategy::kHouse;
    sconfig.sample_size = budget;
    sconfig.grouping_columns = tpcd::LineitemGroupingColumnNames();
    sconfig.seed = 7;
    auto synopsis = AquaSynopsis::Build(base, sconfig);
    if (!synopsis.ok()) return 1;
    auto answer = synopsis->Answer(qg3);
    if (!answer.ok()) return 1;
    report_row("House sample (precomputed)", *answer, "none");
  }

  // 2. Online aggregation stopped at the budget.
  for (bool striding : {false, true}) {
    OnlineAggOptions options;
    options.index_striding = striding;
    options.seed = 9;
    auto agg = OnlineAggregator::Start(&base, qg3, options);
    if (!agg.ok()) return 1;
    agg->Step(budget);
    auto estimate = agg->CurrentEstimate();
    if (!estimate.ok()) return 1;
    report_row(striding ? "Online agg. + index striding"
                        : "Online agg. (uniform scan)",
               *estimate, "per query");
  }

  // 3. Histogram synopsis with at least the sample's cell count.
  {
    GroupHistogram::Options options;
    // A sample tuple stores one cell per column; give the histogram the
    // same total cells (4 cells per bucket with one measure).
    options.num_buckets = std::max<size_t>(
        1, budget * base.num_columns() / 4);
    options.measure_columns = {tpcd::kLQuantity};
    auto histogram =
        GroupHistogram::Build(base, tpcd::LineitemGroupingColumns(), options);
    if (!histogram.ok()) return 1;
    auto answer = histogram->Answer(qg3);
    if (!answer.ok()) return 1;
    char label[80];
    std::snprintf(label, sizeof(label), "Histogram (%zu buckets)",
                  histogram->num_buckets());
    report_row(label, *answer, "none");
  }
  // 4. Wavelet synopsis at the same cell budget.
  {
    WaveletSynopsis::Options options;
    // 3 cells per retained coefficient vs. one cell per sample value.
    options.coefficient_budget = std::max<size_t>(
        1, budget * base.num_columns() / 3);
    options.measure_columns = {tpcd::kLQuantity};
    auto synopsis = WaveletSynopsis::Build(
        base, tpcd::LineitemGroupingColumns(), options);
    if (!synopsis.ok()) return 1;
    auto answer = synopsis->Answer(qg3);
    if (!answer.ok()) return 1;
    char label[80];
    std::snprintf(label, sizeof(label), "Wavelet (%zu coefficients)",
                  synopsis->retained_coefficients());
    report_row(label, *answer, "none");
  }
  std::printf(
      "\n(Histogram buckets / wavelet coefficients vs. %llu finest "
      "groups; when the group cube fits in the budget these synopses are "
      "exact, when it does not the tail inherits the smearing error — "
      "footnote 4's point.)\n\n",
      static_cast<unsigned long long>(data->realized_num_groups));
  }
  std::printf(
      "Note: the Qg0 workload's range predicate on l_id cannot be "
      "answered by the histogram/wavelet cube synopses at all — only the "
      "tuple-level samples (and OLA) support arbitrary predicates.\n");
  return 0;
}

}  // namespace
}  // namespace congress

int main(int argc, char** argv) { return congress::Run(argc, argv); }
