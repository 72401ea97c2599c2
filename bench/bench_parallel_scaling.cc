// Parallel scaling of the two-stage scan engine: exact group-by time vs
// thread count on a 1M-row Zipf-skewed lineitem table. Not a paper
// figure — it validates the morsel-driven engine: speedup should grow
// with threads while every answer stays bit-identical to the serial one.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "sampling/maintenance.h"
#include "testing/oracles.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"

namespace congress {
namespace {

int Run(int argc, char** argv) {
  bench::PrintHeader(
      "Parallel scaling: exact group-by vs. thread count",
      "morsel-driven scan speeds up with threads; answers stay "
      "bit-identical to the serial engine");

  tpcd::LineitemConfig defaults;
  defaults.group_skew_z = 1.2;
  const tpcd::LineitemConfig config =
      bench::LineitemConfigFromArgs(argc, argv, defaults);
  auto data = tpcd::GenerateLineitem(config);
  if (!data.ok()) {
    std::printf("generation failed: %s\n", data.status().ToString().c_str());
    return 1;
  }
  const Table& base = data->table;
  GroupByQuery query = tpcd::MakeQg3();
  std::printf("T=%zu tuples, NG=%llu (z=%.2f), query Qg3 (finest grouping), "
              "%u hardware threads\n\n",
              base.num_rows(),
              static_cast<unsigned long long>(data->realized_num_groups),
              config.group_skew_z, std::thread::hardware_concurrency());

  const int runs =
      std::max(1, static_cast<int>(bench::ArgOr(argc, argv, "--runs", 5)));
  bench::JsonReport report(argc, argv);

  ExecutorOptions serial;
  auto reference = ExecuteExact(base, query, serial);
  if (!reference.ok()) {
    std::printf("query failed: %s\n", reference.status().ToString().c_str());
    return 1;
  }
  double serial_seconds = 0.0;

  std::printf("%-10s %12s %10s %12s\n", "threads", "seconds", "speedup",
              "identical");
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ExecutorOptions options;
    options.num_threads = threads;
    Result<ApproximateResult> answer = ApproximateResult{};
    double seconds = bench::MeasureSeconds(
        [&] { answer = ExecuteExact(base, query, options); }, runs);
    if (!answer.ok()) {
      std::printf("query failed: %s\n", answer.status().ToString().c_str());
      return 1;
    }
    if (threads == 1) serial_seconds = seconds;
    const bool identical =
        testing::CheckApproximateIdentical(*reference, *answer, "").ok();
    std::printf("%-10zu %12.4f %9.2fx %12s\n", threads, seconds,
                serial_seconds / seconds, identical ? "yes" : "NO");

    // One extra instrumented run (outside the timed loop, so span
    // bookkeeping never contaminates the headline number) to break the
    // query into per-stage timings, plus a fixed-size incremental
    // maintenance stage so the report also tracks maintainer cost.
    obs::Scope root("bench");
    ExecutorOptions instrumented = options.WithScope(&root);
    auto instrumented_answer = ExecuteExact(base, query, instrumented);
    if (!instrumented_answer.ok()) {
      std::printf("instrumented query failed: %s\n",
                  instrumented_answer.status().ToString().c_str());
      return 1;
    }
    {
      CONGRESS_SPAN(maintain_span, &root, "maintenance");
      auto maintainer = MakeCongressMaintainer(
          base.schema(), query.group_columns, /*y=*/1000, config.seed);
      const size_t maintenance_rows =
          std::min<size_t>(base.num_rows(), 50'000);
      std::vector<Value> row;
      for (size_t r = 0; r < maintenance_rows; ++r) {
        row.clear();
        for (size_t c = 0; c < base.num_columns(); ++c) {
          row.push_back(base.GetValue(r, c));
        }
        if (!maintainer->Insert(row).ok()) break;
      }
    }

    report.Add("exact_groupby",
               {{"threads", static_cast<double>(threads)},
                {"tuples", static_cast<double>(base.num_rows())},
                {"skew", config.group_skew_z}},
               seconds, identical ? 0.0 : -1.0, root.Flatten());
    if (!identical) return 1;
  }
  std::printf("\n(speedup relative to num_threads = 1; 'identical' checks "
              "bit-equality of every aggregate against the serial answer; "
              "speedup requires real cores — on a single-core machine only "
              "the identity check is meaningful)\n");
  report.Write();
  return 0;
}

}  // namespace
}  // namespace congress

int main(int argc, char** argv) { return congress::Run(argc, argv); }
