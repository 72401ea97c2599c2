// Workload tuning: the Section 4.7 / Section 8 extensions. Shows
//   (a) grouping preferences — when the analyst's workload is known to be
//       80% per-(flag,status) and 20% per-flag, tilt the allocation;
//   (b) restricting Congress to the groupings that can actually occur;
//   (c) time-decay biasing via the weight-vector framework: recent data
//       gets more sample space than old data.

#include <cstdio>
#include <vector>

#include "core/estimator.h"
#include "core/metrics.h"
#include "engine/executor.h"
#include "sampling/builder.h"
#include "sampling/criteria.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"

using namespace congress;

namespace {

double L1(const Table& base, const StratifiedSample& sample,
          const GroupByQuery& query) {
  auto exact = ExecuteExact(base, query);
  auto approx = EstimateGroupBy(sample, SampleMoments::Compute(sample), query);
  if (!exact.ok() || !approx.ok()) return -1.0;
  return CompareAnswers(*exact, *approx, 0).l1;
}

}  // namespace

int main() {
  tpcd::LineitemConfig config;
  config.num_tuples = 400'000;
  config.num_groups = 512;
  config.group_skew_z = 1.2;
  config.seed = 5;
  auto data = tpcd::GenerateLineitem(config);
  if (!data.ok()) {
    std::printf("generation failed: %s\n", data.status().ToString().c_str());
    return 1;
  }
  const Table& base = data->table;
  auto grouping = tpcd::LineitemGroupingColumns();
  auto census = GroupCensus::Build(base, grouping);
  if (!census.ok()) {
    std::printf("census failed: %s\n", census.status().ToString().c_str());
    return 1;
  }
  const GroupStatistics& stats = census->stats;
  const double x = 20'000.0;
  Random rng(17);

  // (a) Preferences: 80% of queries group by (flag, status), 20% by flag.
  //     Position indices are within the grouping key: flag=0, status=1,
  //     shipdate=2.
  auto preferred =
      AllocateWithPreferences(stats, x, {{{0, 1}, 0.8}, {{0}, 0.2}});
  Allocation plain = AllocateCongress(stats, x);
  if (!preferred.ok()) {
    std::printf("preference allocation failed: %s\n",
                preferred.status().ToString().c_str());
    return 1;
  }
  auto sample_pref = BuildStratifiedSample(base, *census, *preferred, &rng);
  auto sample_plain = BuildStratifiedSample(base, *census, plain, &rng);
  if (!sample_pref.ok() || !sample_plain.ok()) {
    std::printf("build failed\n");
    return 1;
  }
  GroupByQuery qg2 = tpcd::MakeQg2();
  std::printf("Section 4.7 preferences (workload 80%% Qg2, 20%% per-flag):\n");
  std::printf("  Qg2 L1 error: preference-tuned %.2f%% vs plain Congress "
              "%.2f%%\n\n",
              L1(base, *sample_pref, qg2), L1(base, *sample_plain, qg2));

  // (b) Restricting Congress to a known grouping family — here the
  //     analyst never groups by shipdate alone.
  auto restricted = AllocateCongressOverGroupings(
      stats, x, {{}, {0}, {1}, {0, 1}, {0, 1, 2}});
  if (restricted.ok()) {
    auto sample_restricted =
        BuildStratifiedSample(base, *census, *restricted, &rng);
    if (sample_restricted.ok()) {
      std::printf("Congress restricted to the workload's groupings: Qg2 L1 "
                  "%.2f%% (scale-down f %.3f vs %.3f unrestricted — less "
                  "space wasted on unused groupings)\n\n",
                  L1(base, *sample_restricted, qg2),
                  restricted->scale_down_factor, plain.scale_down_factor);
    }
  }

  // (c) Time-decay biasing (Section 8, "Generalization to Other
  //     Queries"): weight recent shipdate ranges higher. We bucket the
  //     shipdate domain into quartiles and give the most recent quartile
  //     4x the weight of the oldest.
  // RangeDecayWeightVector ranks the shipdate domain into quartiles and
  // multiplies each step toward the newest by 2.5x (so the newest quartile
  // carries ~16x the oldest's sampling rate).
  auto decay = RangeDecayWeightVector(stats, /*key_position=*/2,
                                      /*num_buckets=*/4,
                                      /*decay_per_bucket=*/2.5);
  if (!decay.ok()) {
    std::printf("decay criterion failed: %s\n",
                decay.status().ToString().c_str());
    return 1;
  }
  auto decayed = AllocateFromWeightVectors(stats, x, {*decay});
  std::vector<int64_t> dates;
  for (const GroupKey& key : stats.keys()) dates.push_back(key[2].AsInt64());
  std::sort(dates.begin(), dates.end());
  Allocation uniform = AllocateHouse(stats, x);
  if (decayed.ok()) {
    auto sample_decay = BuildStratifiedSample(base, *census, *decayed, &rng);
    auto sample_uniform = BuildStratifiedSample(base, *census, uniform, &rng);
    if (sample_decay.ok() && sample_uniform.ok()) {
      // Query only the most recent quartile of dates — the paper's sales
      // promotion analysis over recent data.
      GroupByQuery recent = tpcd::MakeQg2();
      recent.predicate = MakeRangePredicate(
          tpcd::kLShipDate,
          static_cast<double>(dates[3 * dates.size() / 4]), 1e18);
      std::printf("Section 8 time-decay biasing (recent quartile weighted "
                  "16x over the oldest):\n");
      std::printf("  recent-quarter Qg2 L1 error: decayed %.2f%% vs "
                  "uniform sample %.2f%%\n",
                  L1(base, *sample_decay, recent),
                  L1(base, *sample_uniform, recent));
    }
  }
  return 0;
}
