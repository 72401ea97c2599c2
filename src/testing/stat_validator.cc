#include "testing/stat_validator.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "core/aqua.h"
#include "engine/executor.h"
#include "sampling/builder.h"
#include "util/random.h"

namespace congress::testing {

std::string CoverageReport::ToString() const {
  std::ostringstream out;
  out << "coverage " << covered << "/" << trials << " = " << coverage()
      << " (degenerate " << degenerate << ", missing groups "
      << missing_groups << ")";
  for (size_t d = 0; d < decile_trials.size(); ++d) {
    if (decile_trials[d] == 0) continue;
    out << "\n  decile " << d << ": " << decile_covered[d] << "/"
        << decile_trials[d] << " = "
        << static_cast<double>(decile_covered[d]) /
               static_cast<double>(decile_trials[d]);
  }
  return out.str();
}

Result<CoverageReport> RunCoverage(const CoverageConfig& config) {
  CoverageReport report;

  // The fixed probe query: finest grouping, all three estimator kinds.
  GroupByQuery query;
  EstimatorOptions est_options;
  est_options.confidence = config.confidence;
  est_options.bound_method = config.bound_method;

  for (uint64_t run = 0; run < config.num_runs; ++run) {
    SyntheticSpec spec = config.data;
    spec.seed = config.data.seed + run;
    auto data = GenerateSynthetic(spec);
    CONGRESS_RETURN_NOT_OK(data.status());
    const Table& table = data->table;
    const std::vector<size_t>& grouping = data->grouping_columns;

    if (query.aggregates.empty()) {
      query.group_columns = grouping;
      query.aggregates.emplace_back(AggregateKind::kSum,
                                    data->numeric_columns[1]);
      query.aggregates.emplace_back(AggregateKind::kCount, size_t{0});
      query.aggregates.emplace_back(AggregateKind::kAvg,
                                    data->numeric_columns[2]);
    }

    auto exact = ExecuteExact(table, query);
    CONGRESS_RETURN_NOT_OK(exact.status());

    // Population deciles by per-run group-size rank.
    std::vector<std::pair<uint64_t, GroupKey>> sized;
    auto counts = CountGroups(table, grouping);
    sized.reserve(counts.size());
    for (const auto& [key, count] : counts) sized.emplace_back(count, key);
    std::sort(sized.begin(), sized.end());
    std::unordered_map<GroupKey, size_t, GroupKeyHash> decile_of;
    for (size_t rank = 0; rank < sized.size(); ++rank) {
      decile_of[sized[rank].second] =
          std::min<size_t>(9, rank * 10 / std::max<size_t>(1, sized.size()));
    }

    const double x =
        config.sample_fraction * static_cast<double>(table.num_rows());
    Random rng(spec.seed * 0x9e3779b97f4a7c15ULL + 1);
    auto sample = BuildSample(table, grouping, config.strategy, x, &rng);
    CONGRESS_RETURN_NOT_OK(sample.status());
    auto estimate = EstimateGroupBy(*sample, SampleMoments::Compute(*sample),
                                    query, est_options);
    CONGRESS_RETURN_NOT_OK(estimate.status());

    for (const ApproximateGroupRow& truth : exact->rows()) {
      const std::optional<ApproximateGroupRow> est = estimate->Find(truth.key);
      if (!est) {
        ++report.missing_groups;
        continue;
      }
      const size_t decile =
          decile_of[GroupKey(truth.key.begin(), truth.key.end())];
      for (size_t a = 0; a < truth.estimates.size(); ++a) {
        if (est->support < 2) {
          // Bound is 0 by design (variance not estimable from one draw):
          // a statement of ignorance, not a coverage failure.
          ++report.degenerate;
          continue;
        }
        ++report.trials;
        ++report.decile_trials[decile];
        const bool covered = std::fabs(est->estimates[a] -
                                       truth.estimates[a]) <=
                             est->bounds[a] + 1e-9;
        if (covered) {
          ++report.covered;
          ++report.decile_covered[decile];
        }
      }
    }
  }
  return report;
}

Status ValidateCoverage(const CoverageReport& report, double confidence,
                        double z, uint64_t min_decile_trials) {
  if (report.trials == 0) {
    return Status::FailedPrecondition(
        "coverage experiment produced no usable trials");
  }
  auto floor_for = [&](uint64_t trials) {
    return confidence -
           z * std::sqrt(confidence * (1.0 - confidence) /
                         static_cast<double>(trials));
  };
  if (report.coverage() < floor_for(report.trials)) {
    return Status::Internal(
        "CI coverage " + std::to_string(report.coverage()) + " over " +
        std::to_string(report.trials) + " trials is below the nominal " +
        std::to_string(confidence) + " (binomial floor " +
        std::to_string(floor_for(report.trials)) + ")");
  }
  for (size_t d = 0; d < report.decile_trials.size(); ++d) {
    const uint64_t trials = report.decile_trials[d];
    if (trials < min_decile_trials) continue;
    const double coverage = static_cast<double>(report.decile_covered[d]) /
                            static_cast<double>(trials);
    if (coverage < floor_for(trials)) {
      return Status::Internal(
          "CI coverage " + std::to_string(coverage) + " in group-size decile " +
          std::to_string(d) + " (" + std::to_string(trials) +
          " trials) is below the nominal " + std::to_string(confidence) +
          " (binomial floor " + std::to_string(floor_for(trials)) + ")");
    }
  }
  return Status::OK();
}

std::string BudgetCoverageReport::ToString() const {
  std::ostringstream out;
  for (const Tier& tier : tiers) {
    if (&tier != &tiers.front()) out << "\n";
    out << "budget " << tier.budget * 100.0 << "%: coverage " << tier.covered
        << "/" << tier.trials << " = " << tier.coverage() << " (promise broken "
        << tier.promise_broken << ", missing groups " << tier.missing_groups
        << ")";
    out << "\n  plans:";
    for (size_t k = 0; k < tier.kind_runs.size(); ++k) {
      if (tier.kind_runs[k] == 0) continue;
      out << " " << planner::PlanKindToString(static_cast<planner::PlanKind>(k))
          << "=" << tier.kind_runs[k];
    }
    for (size_t d = 0; d < tier.decile_trials.size(); ++d) {
      if (tier.decile_trials[d] == 0) continue;
      out << "\n  decile " << d << ": " << tier.decile_covered[d] << "/"
          << tier.decile_trials[d];
    }
  }
  return out.str();
}

Result<BudgetCoverageReport> RunBudgetCoverage(
    const BudgetCoverageConfig& config) {
  BudgetCoverageReport report;
  report.tiers.resize(config.budget_tiers.size());
  for (size_t t = 0; t < config.budget_tiers.size(); ++t) {
    report.tiers[t].budget = config.budget_tiers[t];
  }

  // The fixed probe query: finest grouping, all three estimator kinds.
  GroupByQuery query;

  for (uint64_t run = 0; run < config.num_runs; ++run) {
    SyntheticSpec spec = config.data;
    spec.seed = config.data.seed + run;
    auto data = GenerateSynthetic(spec);
    CONGRESS_RETURN_NOT_OK(data.status());
    const Table& table = data->table;
    const std::vector<size_t>& grouping = data->grouping_columns;

    if (query.aggregates.empty()) {
      query.group_columns = grouping;
      query.aggregates.emplace_back(AggregateKind::kSum,
                                    data->numeric_columns[1]);
      query.aggregates.emplace_back(AggregateKind::kCount, size_t{0});
      query.aggregates.emplace_back(AggregateKind::kAvg,
                                    data->numeric_columns[2]);
    }

    auto exact = ExecuteExact(table, query);
    CONGRESS_RETURN_NOT_OK(exact.status());

    // Population deciles by per-run group-size rank.
    std::vector<std::pair<uint64_t, GroupKey>> sized;
    auto counts = CountGroups(table, grouping);
    sized.reserve(counts.size());
    for (const auto& [key, count] : counts) sized.emplace_back(count, key);
    std::sort(sized.begin(), sized.end());
    std::unordered_map<GroupKey, size_t, GroupKeyHash> decile_of;
    for (size_t rank = 0; rank < sized.size(); ++rank) {
      decile_of[sized[rank].second] =
          std::min<size_t>(9, rank * 10 / std::max<size_t>(1, sized.size()));
    }

    // One engine per run: the planner needs the published snapshot's
    // fleet (primary + fallbacks + base group index), not a bare sample.
    SynopsisConfig synopsis;
    synopsis.strategy = config.strategy;
    synopsis.sample_fraction = config.sample_fraction;
    synopsis.seed = spec.seed * 0x9e3779b97f4a7c15ULL + 1;
    for (size_t c : grouping) {
      synopsis.grouping_columns.push_back(table.schema().field(c).name);
    }
    AquaEngine engine;
    CONGRESS_RETURN_NOT_OK(engine.RegisterTable("t", table, synopsis));
    auto snapshot = engine.GetSnapshot("t");
    CONGRESS_RETURN_NOT_OK(snapshot.status());

    planner::Planner plan_runner;
    for (size_t t = 0; t < config.budget_tiers.size(); ++t) {
      BudgetCoverageReport::Tier& tier = report.tiers[t];
      GroupByQuery budgeted = query;
      budgeted.budget.relative_error = tier.budget;
      budgeted.budget.confidence = config.confidence;

      auto planned = plan_runner.Run(**snapshot, budgeted);
      CONGRESS_RETURN_NOT_OK(planned.status());
      const size_t kind = static_cast<size_t>(planned->report.chosen.kind);
      ++tier.kind_runs[kind];

      for (const ApproximateGroupRow& truth : exact->rows()) {
        const std::optional<ApproximateGroupRow> est =
            planned->result.Find(truth.key);
        if (!est) {
          ++tier.missing_groups;
          continue;
        }
        const size_t decile =
            decile_of[GroupKey(truth.key.begin(), truth.key.end())];
        for (size_t a = 0; a < truth.estimates.size(); ++a) {
          ++tier.trials;
          ++tier.decile_trials[decile];
          ++tier.kind_trials[kind];
          const double denom = std::max(std::fabs(est->estimates[a]), 1e-9);
          if (est->bounds[a] > tier.budget * denom * (1.0 + 1e-9)) {
            ++tier.promise_broken;
          }
          const bool covered = std::fabs(est->estimates[a] -
                                         truth.estimates[a]) <=
                               est->bounds[a] + 1e-9;
          if (covered) {
            ++tier.covered;
            ++tier.decile_covered[decile];
            ++tier.kind_covered[kind];
          }
        }
      }
    }
  }
  return report;
}

Status ValidateBudgetCoverage(const BudgetCoverageReport& report,
                              double confidence, double z,
                              uint64_t min_trials,
                              uint64_t min_slice_trials) {
  if (report.tiers.empty()) {
    return Status::FailedPrecondition(
        "budget-coverage experiment ran no tiers");
  }
  auto floor_for = [&](uint64_t trials) {
    return confidence -
           z * std::sqrt(confidence * (1.0 - confidence) /
                         static_cast<double>(trials));
  };
  for (const BudgetCoverageReport::Tier& tier : report.tiers) {
    const std::string label =
        "budget tier " + std::to_string(tier.budget * 100.0) + "%";
    if (tier.trials < min_trials) {
      return Status::FailedPrecondition(
          label + " produced only " + std::to_string(tier.trials) +
          " trials (need >= " + std::to_string(min_trials) + ")");
    }
    if (tier.promise_broken > 0) {
      return Status::Internal(
          label + ": " + std::to_string(tier.promise_broken) + " of " +
          std::to_string(tier.trials) +
          " delivered half-widths exceed the promised fraction of the "
          "estimate — the planner's verify-and-escalate loop must make "
          "this impossible");
    }
    if (tier.coverage() < floor_for(tier.trials)) {
      return Status::Internal(
          label + ": CI coverage " + std::to_string(tier.coverage()) +
          " over " + std::to_string(tier.trials) +
          " trials is below the nominal " + std::to_string(confidence) +
          " (binomial floor " + std::to_string(floor_for(tier.trials)) + ")");
    }
    for (size_t d = 0; d < tier.decile_trials.size(); ++d) {
      const uint64_t trials = tier.decile_trials[d];
      if (trials < min_slice_trials) continue;
      const double coverage = static_cast<double>(tier.decile_covered[d]) /
                              static_cast<double>(trials);
      if (coverage < floor_for(trials)) {
        return Status::Internal(
            label + ": CI coverage " + std::to_string(coverage) +
            " in group-size decile " + std::to_string(d) + " (" +
            std::to_string(trials) + " trials) is below the nominal " +
            std::to_string(confidence) + " (binomial floor " +
            std::to_string(floor_for(trials)) + ")");
      }
    }
    for (size_t k = 0; k < tier.kind_trials.size(); ++k) {
      const uint64_t trials = tier.kind_trials[k];
      if (trials < min_slice_trials) continue;
      const double coverage = static_cast<double>(tier.kind_covered[k]) /
                              static_cast<double>(trials);
      if (coverage < floor_for(trials)) {
        return Status::Internal(
            label + ": CI coverage " + std::to_string(coverage) +
            " for plan kind " +
            planner::PlanKindToString(static_cast<planner::PlanKind>(k)) +
            " (" + std::to_string(trials) +
            " trials) is below the nominal " + std::to_string(confidence) +
            " (binomial floor " + std::to_string(floor_for(trials)) + ")");
      }
    }
  }
  return Status::OK();
}

}  // namespace congress::testing
