// Quickstart: build a congressional sample over a skewed sales relation
// and answer group-by queries approximately, with error bounds — the
// library's core workflow in ~80 lines.
//
//   1. Create (or load) a Table.
//   2. Configure an AquaSynopsis: grouping columns, space, strategy.
//   3. Ask group-by queries; get estimates + 90%-confidence bounds.

#include <cstdio>

#include "core/rewriter.h"
#include "core/synopsis.h"
#include "engine/executor.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"

using namespace congress;  // Example code; library code never does this.

int main() {
  // 1. A 500K-row TPC-D-style lineitem table with skewed group sizes.
  tpcd::LineitemConfig data_config;
  data_config.num_tuples = 500'000;
  data_config.num_groups = 1000;
  data_config.group_skew_z = 1.2;
  data_config.seed = 2026;
  auto data = tpcd::GenerateLineitem(data_config);
  if (!data.ok()) {
    std::printf("data generation failed: %s\n",
                data.status().ToString().c_str());
    return 1;
  }
  const Table& lineitem = data->table;
  std::printf("base relation: %zu tuples, %llu groups\n", lineitem.num_rows(),
              static_cast<unsigned long long>(data->realized_num_groups));

  // 2. Build a 5% congressional sample stratified on the three
  //    dimensional columns. This is the only precomputation step.
  SynopsisConfig config;
  config.strategy = AllocationStrategy::kCongress;
  config.sample_fraction = 0.05;
  config.grouping_columns = {"l_returnflag", "l_linestatus", "l_shipdate"};
  config.estimator.confidence = 0.90;
  config.seed = 1;
  // Scans (build, estimation, exact baselines) run on the morsel engine;
  // 0 = all hardware threads. Answers are bit-identical for any value.
  config.execution.num_threads = 0;
  auto synopsis = AquaSynopsis::Build(lineitem, config);
  if (!synopsis.ok()) {
    std::printf("synopsis build failed: %s\n",
                synopsis.status().ToString().c_str());
    return 1;
  }
  std::printf("synopsis: %zu sampled tuples across %zu strata\n\n",
              synopsis->sample().num_rows(),
              synopsis->sample().strata().size());

  // 3a. A two-attribute group-by (the paper's Qg2).
  GroupByQuery query = tpcd::MakeQg2();
  auto approx = synopsis->Answer(query);
  auto exact = ExecuteExact(lineitem, query, config.execution);
  if (!approx.ok() || !exact.ok()) {
    std::printf("query failed\n");
    return 1;
  }
  std::printf("SELECT l_returnflag, l_linestatus, SUM(l_quantity) ... "
              "GROUP BY l_returnflag, l_linestatus\n");
  std::printf("%-18s %14s %14s %12s\n", "group", "approx", "exact",
              "bound(90%)");
  for (const ApproximateGroupRow& row : approx->rows()) {
    const GroupResult* truth = exact->Find(row.key);
    std::printf("%-18s %14.4g %14.4g %12.3g\n",
                GroupKeyToString(row.key).c_str(), row.estimates[0],
                truth != nullptr ? truth->aggregates[0] : 0.0, row.bounds[0]);
  }

  // 3b. The same synopsis answers any grouping over its columns —
  //     including none at all (the "House" end of the spectrum).
  GroupByQuery total;
  total.aggregates = {AggregateSpec{AggregateKind::kSum, tpcd::kLQuantity},
                      AggregateSpec{AggregateKind::kAvg, tpcd::kLQuantity}};
  auto total_answer = synopsis->Answer(total);
  if (total_answer.ok() && total_answer->num_groups() == 1) {
    const auto& row = total_answer->rows()[0];
    std::printf("\nglobal SUM(l_quantity) ~= %.4g (+- %.3g), "
                "AVG ~= %.4g (+- %.3g)\n",
                row.estimates[0], row.bounds[0], row.estimates[1],
                row.bounds[1]);
  }

  // 3c. Queries can also run through the SQL-style rewrite plans.
  Rewriter rewriter(synopsis->sample());
  auto rewritten = rewriter.Answer(query, RewriteStrategy::kNestedIntegrated,
                                   synopsis->config().execution);
  if (rewritten.ok()) {
    std::printf("\nNested-Integrated rewrite agrees on %zu groups.\n",
                rewritten->num_groups());
  }

  // 4. Observability: hand the engine a scope to time each stage of one
  //    query, and snapshot the process-wide metric registry.
  obs::Scope root("quickstart_query");
  auto timed = ExecuteExact(lineitem, query, config.execution.WithScope(&root));
  if (timed.ok()) {
    std::printf("\nper-stage timings of one exact query:\n%s",
                root.ToText().c_str());
  }
  std::printf("\nprocess-wide metrics so far:\n%s",
              obs::MetricsRegistry::Global().SnapshotText().c_str());
  return 0;
}
