#include "testing/harness.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "sampling/allocation.h"
#include "sampling/builder.h"
#include "storage/csv.h"
#include "testing/oracles.h"
#include "testing/stat_validator.h"
#include "util/random.h"

namespace congress::testing {

namespace {

constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ULL;

std::vector<PropConfig> BuildDefaultConfigs() {
  std::vector<PropConfig> configs;

  {
    PropConfig c;
    c.name = "uniform";
    c.description = "2 grouping columns, 9 near-uniform groups";
    c.spec.num_rows = 4000;
    c.spec.num_grouping_columns = 2;
    c.spec.values_per_column = 3;
    c.spec.group_skew_z = 0.0;
    configs.push_back(c);
  }
  {
    PropConfig c;
    c.name = "skewed";
    c.description = "3 grouping columns, 27 groups, heavy Zipf skew";
    c.spec.num_rows = 5000;
    c.spec.num_grouping_columns = 3;
    c.spec.values_per_column = 3;
    c.spec.group_skew_z = 1.5;
    configs.push_back(c);
  }
  {
    PropConfig c;
    c.name = "nulls";
    c.description = "null-heavy: 40% of rows in the all-sentinel group";
    c.spec.num_rows = 4000;
    c.spec.num_grouping_columns = 2;
    c.spec.values_per_column = 3;
    c.spec.group_skew_z = 1.0;
    c.spec.null_fraction = 0.4;
    configs.push_back(c);
  }
  {
    PropConfig c;
    c.name = "singletons";
    c.description = "12 single-tuple strata beside skewed regular groups";
    c.spec.num_rows = 3000;
    c.spec.num_grouping_columns = 2;
    c.spec.values_per_column = 3;
    c.spec.group_skew_z = 1.2;
    c.spec.singleton_groups = 12;
    configs.push_back(c);
  }
  {
    PropConfig c;
    c.name = "onecol";
    c.description = "single grouping column, many distinct values";
    c.spec.num_rows = 4000;
    c.spec.num_grouping_columns = 1;
    c.spec.values_per_column = 40;
    c.spec.group_skew_z = 0.86;
    c.querygen.rollup_probability = 0.3;
    configs.push_back(c);
  }
  {
    PropConfig c;
    c.name = "vectorized";
    c.description =
        "predicate/expression-heavy queries pinning the batch kernels "
        "against the scalar path";
    c.spec.num_rows = 4000;
    c.spec.num_grouping_columns = 2;
    c.spec.values_per_column = 4;
    c.spec.group_skew_z = 1.0;
    c.spec.null_fraction = 0.1;
    // Every query gets a WHERE clause and most get expression aggregates,
    // so both MatchBatch and EvalBatch fast paths see real traffic.
    c.querygen.predicate_probability = 1.0;
    c.querygen.having_probability = 0.3;
    c.querygen.max_aggregates = 3;
    configs.push_back(c);
  }
  {
    PropConfig c;
    c.name = "crash_recovery";
    c.description =
        "checkpoint / crash / recover round trips + corruption salvage, all "
        "four strategies";
    c.spec.num_rows = 2000;
    c.spec.num_grouping_columns = 2;
    c.spec.values_per_column = 3;
    c.spec.group_skew_z = 1.0;
    c.spec.singleton_groups = 2;
    c.crash_recovery = true;
    configs.push_back(c);
  }
  {
    PropConfig c;
    c.name = "concurrent";
    c.description =
        "reader threads vs a publishing writer on one engine: every answer "
        "bit-identical to a published snapshot, epochs monotonic";
    c.spec.num_rows = 2000;
    c.spec.num_grouping_columns = 2;
    c.spec.values_per_column = 3;
    c.spec.group_skew_z = 1.0;
    c.concurrent = true;
    configs.push_back(c);
  }
  {
    PropConfig c;
    c.name = "sharded_ingest";
    c.description =
        "sharded streaming ingest: bit-identical to the serial maintainer "
        "at 1/4/8 shards, concurrent producers tear nothing and publish "
        "the serial replay of the merged rows, engine publishes are "
        "shard-count invariant with monotonic epochs";
    c.spec.num_rows = 2000;
    c.spec.num_grouping_columns = 2;
    c.spec.values_per_column = 3;
    c.spec.group_skew_z = 1.0;
    c.spec.singleton_groups = 2;
    c.sharded_ingest = true;
    configs.push_back(c);
  }
  {
    PropConfig c;
    c.name = "net_chaos";
    c.description =
        "retrying clients vs a live framed TCP front-end under injected "
        "socket faults: every request resolves definitely, most succeed, "
        "tokened inserts land exactly once, Stop() drains in bound";
    c.spec.num_rows = 2000;
    c.spec.num_grouping_columns = 2;
    c.spec.values_per_column = 3;
    c.spec.group_skew_z = 1.0;
    c.net_chaos = true;
    configs.push_back(c);
  }
  {
    PropConfig c;
    c.name = "planner";
    c.description =
        "budget coverage: Zipf tables through the accuracy-aware planner "
        "under a ladder of error budgets; promised half-widths must hold "
        "at the stated confidence per tier, decile, and plan kind";
    // Many distinct Zipf groups so the per-run group-size deciles each
    // accumulate enough Bernoulli trials to be individually validated.
    c.spec.num_rows = 4000;
    c.spec.num_grouping_columns = 1;
    c.spec.values_per_column = 40;
    c.spec.group_skew_z = 1.2;
    c.planner = true;
    configs.push_back(c);
  }
  {
    PropConfig c;
    c.name = "lineitem";
    c.description = "TPC-D lineitem generator, 27 groups";
    c.use_lineitem = true;
    c.lineitem.num_tuples = 20000;
    c.lineitem.num_groups = 27;
    configs.push_back(c);
  }
  return configs;
}

/// The realized workload for one case: table plus column roles.
struct CaseData {
  Table table;
  std::string table_name;
  std::vector<size_t> grouping_columns;
  std::vector<size_t> numeric_columns;
};

Result<CaseData> BuildCaseData(const PropConfig& config, uint64_t seed) {
  CaseData data;
  if (config.use_lineitem) {
    tpcd::LineitemConfig lc = config.lineitem;
    lc.seed = seed;
    auto generated = tpcd::GenerateLineitem(lc);
    CONGRESS_RETURN_NOT_OK(generated.status());
    data.table = std::move(generated->table);
    data.table_name = "lineitem";
    data.grouping_columns = tpcd::LineitemGroupingColumns();
    data.numeric_columns = {0, 4, 5};  // l_id, l_quantity, l_extendedprice.
  } else {
    SyntheticSpec spec = config.spec;
    spec.seed = seed;
    auto generated = GenerateSynthetic(spec);
    CONGRESS_RETURN_NOT_OK(generated.status());
    data.table = std::move(generated->table);
    data.table_name = generated->table_name;
    data.grouping_columns = generated->grouping_columns;
    data.numeric_columns = generated->numeric_columns;
  }
  return data;
}

constexpr AllocationStrategy kStrategies[] = {
    AllocationStrategy::kHouse, AllocationStrategy::kSenate,
    AllocationStrategy::kBasicCongress, AllocationStrategy::kCongress};

/// Runs every oracle for one case; on failure reports which oracle and
/// the strategy/query context it tripped on.
Status RunOracles(const PropConfig& config, uint64_t seed,
                  std::string* failed_oracle, std::string* detail) {
  auto fail = [&](const std::string& oracle, const std::string& context,
                  const Status& status) {
    *failed_oracle = oracle;
    *detail = context.empty() ? status.ToString()
                              : context + ": " + status.ToString();
    return status;
  };

  auto data = BuildCaseData(config, seed);
  if (!data.ok()) {
    return fail("workload-generation", "", data.status());
  }
  const Table& table = data->table;
  const double x = std::max(
      1.0, config.sample_fraction * static_cast<double>(table.num_rows()));

  if (config.concurrent) {
    for (AllocationStrategy strategy : kStrategies) {
      const std::string name = AllocationStrategyToString(strategy);
      Status st = CheckConcurrentSnapshotConsistency(
          table, data->grouping_columns, strategy, static_cast<uint64_t>(x),
          seed);
      if (!st.ok()) return fail("concurrent-snapshot-consistency", name, st);
    }
    return Status::OK();
  }

  if (config.sharded_ingest) {
    for (AllocationStrategy strategy : kStrategies) {
      const std::string name = AllocationStrategyToString(strategy);
      Status st = CheckShardedIngestConsistency(
          table, data->grouping_columns, strategy, static_cast<uint64_t>(x),
          seed);
      if (!st.ok()) return fail("sharded-ingest-consistency", name, st);
    }
    return Status::OK();
  }

  if (config.net_chaos) {
    // One strategy: the oracle exercises the transport, not allocation
    // math, and each run spins a full server + chaos fleet.
    const AllocationStrategy strategy = AllocationStrategy::kCongress;
    Status st = CheckNetChaos(table, data->grouping_columns, strategy,
                              static_cast<uint64_t>(x), seed);
    if (!st.ok()) {
      return fail("net-chaos", AllocationStrategyToString(strategy), st);
    }
    return Status::OK();
  }

  if (config.planner) {
    for (AllocationStrategy strategy : kStrategies) {
      const std::string name = AllocationStrategyToString(strategy);
      BudgetCoverageConfig coverage;
      coverage.data = config.spec;
      coverage.data.seed = seed;
      coverage.strategy = strategy;
      coverage.sample_fraction = config.sample_fraction;
      auto report = RunBudgetCoverage(coverage);
      if (!report.ok()) {
        return fail("planner-budget-coverage", name, report.status());
      }
      Status st = ValidateBudgetCoverage(*report, coverage.confidence);
      if (!st.ok()) {
        return fail("planner-budget-coverage",
                    name + ": " + report->ToString(), st);
      }
    }
    return Status::OK();
  }

  if (config.crash_recovery) {
    for (AllocationStrategy strategy : kStrategies) {
      const std::string name = AllocationStrategyToString(strategy);
      Status st = CheckCrashRecovery(table, data->grouping_columns, strategy,
                                     static_cast<uint64_t>(x), seed);
      if (!st.ok()) return fail("crash-recovery", name, st);
      st = CheckCorruptedSnapshotSalvage(table, data->grouping_columns,
                                         strategy, static_cast<uint64_t>(x),
                                         seed);
      if (!st.ok()) return fail("corruption-salvage", name, st);
    }
    return Status::OK();
  }

  std::vector<StratifiedSample> samples;
  for (AllocationStrategy strategy : kStrategies) {
    const std::string name = AllocationStrategyToString(strategy);
    Status st = CheckAllocationInvariants(table, data->grouping_columns,
                                          strategy, x);
    if (!st.ok()) return fail("allocation-invariants", name, st);

    st = CheckMaintenanceDeterminism(table, data->grouping_columns, strategy,
                                     static_cast<uint64_t>(x), seed);
    if (!st.ok()) return fail("maintenance-determinism", name, st);

    st = CheckMaintenanceVsRebuild(table, data->grouping_columns, strategy,
                                   static_cast<uint64_t>(x), seed);
    if (!st.ok()) return fail("maintenance-vs-rebuild", name, st);

    Random rng(seed * kSeedMix +
               static_cast<uint64_t>(strategy));
    auto sample =
        BuildSample(table, data->grouping_columns, strategy, x, &rng);
    if (!sample.ok()) return fail("sample-build", name, sample.status());
    samples.push_back(std::move(*sample));
  }

  Random query_rng(seed * kSeedMix + 1337);
  for (size_t q = 0; q < config.queries_per_seed; ++q) {
    GeneratedQuery gen = RandomQuery(table.schema(), data->grouping_columns,
                                     data->numeric_columns, data->table_name,
                                     config.querygen, &query_rng);
    const size_t s = q % samples.size();
    const std::string context =
        std::string(AllocationStrategyToString(kStrategies[s])) +
        " sample, query " + std::to_string(q) + ": " + gen.sql;

    Status st = CheckSqlAgreement(table, data->table_name, gen.query, gen.sql);
    if (!st.ok()) return fail("sql-agreement", context, st);

    st = CheckRewriterAgreement(samples[s], gen.query);
    if (!st.ok()) return fail("rewriter-agreement", context, st);

    st = CheckThreadInvariance(table, samples[s], gen.query);
    if (!st.ok()) return fail("thread-invariance", context, st);

    st = CheckVectorizedIdentity(table, samples[s], gen.query);
    if (!st.ok()) return fail("vectorized-identity", context, st);

    for (size_t m = 0; m < samples.size(); ++m) {
      st = CheckMomentsIdentity(samples[m], gen.query);
      if (!st.ok()) {
        return fail("moments-identity",
                    std::string(AllocationStrategyToString(kStrategies[m])) +
                        " sample, query " + std::to_string(q) + ": " +
                        gen.sql,
                    st);
      }
    }

    st = CheckFullSampleMatchesExact(table, data->grouping_columns,
                                     kStrategies[s], gen.query, seed + q);
    if (!st.ok()) return fail("full-sample-vs-exact", context, st);

    st = CheckPlannerIdentity(table, data->grouping_columns, kStrategies[s],
                              gen.query, seed + q);
    if (!st.ok()) return fail("planner-identity", context, st);
  }
  return Status::OK();
}

std::string DumpTable(const Table& table) {
  constexpr size_t kMaxDumpRows = 200;
  std::ostringstream out;
  if (table.num_rows() <= kMaxDumpRows) {
    (void)WriteCsv(table, &out);
    return out.str();
  }
  // Dump a prefix: still a valid CSV, just noted as truncated.
  Table head(table.schema());
  std::vector<Value> row;
  for (size_t r = 0; r < kMaxDumpRows; ++r) {
    row.clear();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.push_back(table.GetValue(r, c));
    }
    (void)head.AppendRow(row);
  }
  (void)WriteCsv(head, &out);
  out << "... (" << table.num_rows() - kMaxDumpRows << " more rows)\n";
  return out.str();
}

/// Greedy spec shrinking: apply each reduction while the same oracle
/// still fails, so the dumped repro table is as small as the failure
/// allows. Synthetic regimes only — lineitem configs dump as-is.
SyntheticSpec MinimizeSpec(const PropConfig& config, uint64_t seed,
                           const std::string& oracle) {
  SyntheticSpec best = config.spec;
  auto still_fails = [&](const SyntheticSpec& candidate) {
    PropConfig shrunk = config;
    shrunk.spec = candidate;
    std::string failed, detail;
    Status st = RunOracles(shrunk, seed, &failed, &detail);
    return !st.ok() && failed == oracle;
  };

  // Drop the special strata first, then shrink dimensions, then rows.
  SyntheticSpec candidate = best;
  candidate.null_fraction = 0.0;
  candidate.singleton_groups = 0;
  if (still_fails(candidate)) best = candidate;

  candidate = best;
  candidate.num_grouping_columns = 1;
  if (still_fails(candidate)) best = candidate;

  candidate = best;
  candidate.values_per_column = 2;
  if (still_fails(candidate)) best = candidate;

  for (int i = 0; i < 8 && best.num_rows > 16; ++i) {
    candidate = best;
    candidate.num_rows = std::max<uint64_t>(16, candidate.num_rows / 2);
    if (!still_fails(candidate)) break;
    best = candidate;
  }
  return best;
}

}  // namespace

const std::vector<PropConfig>& DefaultConfigs() {
  static const std::vector<PropConfig>* configs =
      new std::vector<PropConfig>(BuildDefaultConfigs());
  return *configs;
}

Result<PropConfig> FindConfig(const std::string& name) {
  for (const PropConfig& config : DefaultConfigs()) {
    if (config.name == name) return config;
  }
  std::string known;
  for (const PropConfig& config : DefaultConfigs()) {
    if (!known.empty()) known += ", ";
    known += config.name;
  }
  return Status::NotFound("no property config named '" + name +
                          "' (known: " + known + ")");
}

std::string PropFailure::ToString() const {
  std::ostringstream out;
  out << "oracle '" << oracle << "' failed on config '" << config
      << "' seed " << seed << "\n  " << detail << "\n  repro: " << repro
      << "\n  minimized table:\n" << table_dump;
  return out.str();
}

Status RunPropCase(const PropConfig& config, uint64_t seed,
                   PropFailure* failure) {
  std::string oracle;
  std::string detail;
  Status status = RunOracles(config, seed, &oracle, &detail);
  if (status.ok() || failure == nullptr) return status;

  failure->config = config.name;
  failure->seed = seed;
  failure->oracle = oracle;
  failure->detail = detail;
  failure->repro = "prop_runner --seed=" + std::to_string(seed) +
                   " --config=" + config.name;

  if (config.use_lineitem) {
    tpcd::LineitemConfig lc = config.lineitem;
    lc.seed = seed;
    auto data = tpcd::GenerateLineitem(lc);
    failure->table_dump =
        data.ok() ? DumpTable(data->table) : data.status().ToString();
  } else {
    SyntheticSpec minimized = MinimizeSpec(config, seed, oracle);
    minimized.seed = seed;
    auto data = GenerateSynthetic(minimized);
    failure->table_dump =
        data.ok() ? DumpTable(data->table) : data.status().ToString();
  }
  return status;
}

}  // namespace congress::testing
