// Census roll-up: the paper's motivating example (Section 1). A census
// relation where state populations differ by ~70x. A uniform sample gives
// useless per-state income estimates for small states; a congressional
// sample answers every grouping — per state, per gender, per state x
// gender, and nationwide — with balanced accuracy.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/synopsis.h"
#include "engine/executor.h"
#include "tpcd/census.h"

using namespace congress;

namespace {

double L1(const Table& base, const AquaSynopsis& synopsis,
          const GroupByQuery& query) {
  auto exact = ExecuteExact(base, query);
  auto approx = synopsis.Answer(query);
  if (!exact.ok() || !approx.ok()) return -1.0;
  return CompareAnswers(*exact, *approx, 0).l1;
}

GroupByQuery AvgIncome(std::vector<size_t> group_cols) {
  GroupByQuery q;
  q.group_columns = std::move(group_cols);
  q.aggregates = {AggregateSpec{AggregateKind::kAvg, tpcd::kSalary}};
  return q;
}

}  // namespace

int main() {
  tpcd::CensusConfig config;
  config.num_people = 500'000;
  config.num_states = 50;
  config.state_skew_z = 1.0;  // Largest state ~ population / H(50).
  config.seed = 7;
  auto census = tpcd::GenerateCensus(config);
  if (!census.ok()) {
    std::printf("generation failed: %s\n", census.status().ToString().c_str());
    return 1;
  }

  // Report the skew the paper cites.
  auto counts = CountGroups(*census, {tpcd::kState});
  uint64_t biggest = 0;
  uint64_t smallest = UINT64_MAX;
  for (const auto& [key, count] : counts) {
    biggest = std::max(biggest, count);
    smallest = std::min(smallest, count);
  }
  std::printf("census: %zu people, 50 states; largest state %.0fx the "
              "smallest\n\n",
              census->num_rows(),
              static_cast<double>(biggest) / static_cast<double>(smallest));

  // One synopsis per strategy, same space: uniform (House), Senate and
  // Congress, in that order.
  std::vector<AquaSynopsis> synopses;
  for (AllocationStrategy strategy :
       {AllocationStrategy::kHouse, AllocationStrategy::kSenate,
        AllocationStrategy::kCongress}) {
    SynopsisConfig sconfig;
    sconfig.strategy = strategy;
    // A tight space budget (0.2%) makes the uniform sample's small-state
    // starvation visible, as in the paper's Census motivation.
    sconfig.sample_fraction = 0.002;
    sconfig.grouping_columns = {"st", "gen"};
    sconfig.seed = 3;
    auto synopsis = AquaSynopsis::Build(*census, sconfig);
    if (!synopsis.ok()) {
      std::printf("build failed: %s\n",
                  synopsis.status().ToString().c_str());
      return 1;
    }
    synopses.push_back(std::move(synopsis).value());
  }
  const AquaSynopsis& uniform = synopses[0];
  const AquaSynopsis& congress = synopses[2];

  // The analyst's roll-up / drill-down path: nationwide, per gender, per
  // state, per state x gender.
  struct QueryCase {
    const char* label;
    GroupByQuery query;
  };
  std::vector<QueryCase> cases = {
      {"nationwide avg income", AvgIncome({})},
      {"avg income per gender", AvgIncome({tpcd::kGender})},
      {"avg income per state", AvgIncome({tpcd::kState})},
      {"avg income per state x gender",
       AvgIncome({tpcd::kState, tpcd::kGender})},
  };

  std::printf("%-32s", "query");
  std::printf("%18s %18s %18s\n", "uniform (House)", "Senate", "Congress");
  for (const QueryCase& c : cases) {
    std::printf("%-32s", c.label);
    for (const AquaSynopsis& synopsis : synopses) {
      std::printf("%18.2f", L1(*census, synopsis, c.query));
    }
    std::printf("\n");
  }
  std::printf("\n(avg %% error per group; lower is better. The uniform "
              "sample wins only on the nationwide query; Congress is "
              "competitive everywhere.)\n");

  // Show the small-state effect concretely.
  {
    GroupByQuery per_state = AvgIncome({tpcd::kState});
    auto exact = ExecuteExact(*census, per_state);
    auto u = uniform.Answer(per_state);
    auto c = congress.Answer(per_state);
    if (exact.ok() && u.ok() && c.ok()) {
      // Smallest state = highest state id under Zipf rank order.
      GroupKey smallest_state = {Value(int64_t{49})};
      const GroupResult* truth = exact->Find(smallest_state);
      const std::optional<ApproximateGroupRow> ur = u->Find(smallest_state);
      const std::optional<ApproximateGroupRow> cr = c->Find(smallest_state);
      if (truth != nullptr) {
        std::printf("\nsmallest state avg income: exact %.0f | uniform %s "
                    "(support %llu) | congress %.0f (support %llu)\n",
                    truth->aggregates[0],
                    ur.has_value()
                        ? std::to_string(ur->estimates[0]).c_str()
                        : "MISSING",
                    ur.has_value()
                        ? static_cast<unsigned long long>(ur->support)
                        : 0ull,
                    cr.has_value() ? cr->estimates[0] : 0.0,
                    cr.has_value()
                        ? static_cast<unsigned long long>(cr->support)
                        : 0ull);
      }
    }
  }
  return 0;
}
