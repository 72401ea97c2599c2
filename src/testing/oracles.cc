#include "testing/oracles.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include <cstdio>

#include "core/aqua.h"
#include "core/estimator.h"
#include "core/rewriter.h"
#include "engine/exact_rollups.h"
#include "engine/executor.h"
#include "engine/zone_map.h"
#include "net/client.h"
#include "net/front_end.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "planner/planner.h"
#include "resilience/checkpoint.h"
#include "resilience/failpoint.h"
#include "resilience/recovery.h"
#include "resilience/snapshot_io.h"
#include "sampling/builder.h"
#include "sampling/maintenance.h"
#include "sampling/shard.h"
#include "sql/parser.h"
#include "storage/group_index.h"
#include "util/random.h"

namespace congress::testing {

namespace {

/// Near-threshold allowance for approximate-HAVING membership: two plans
/// may legitimately disagree about a group whose aggregate sits within
/// floating-point slack of the threshold.
double HavingSlack(double value, double threshold) {
  return 1e-5 * (std::fabs(value) + std::fabs(threshold) + 1.0);
}

bool PassesWithSlack(const HavingCondition& cond, double value) {
  return cond.Matches(value) ||
         std::fabs(value - cond.value) <= HavingSlack(value, cond.value);
}

bool PassesRobustly(const HavingCondition& cond, double value) {
  return cond.Matches(value) &&
         std::fabs(value - cond.value) > HavingSlack(value, cond.value);
}

/// Post-HAVING membership of `filtered` must be consistent with the
/// reference (having-stripped) values: every surviving group passes every
/// condition at least within slack, and every robustly-passing reference
/// group survives.
Status CheckHavingMembership(const QueryResult& reference,
                             const std::vector<HavingCondition>& having,
                             const QueryResult& filtered,
                             const std::string& label) {
  for (const GroupResult& row : filtered.rows()) {
    const GroupResult* ref = reference.Find(row.key);
    if (ref == nullptr) {
      return Status::Internal(label + " HAVING kept group " +
                              GroupKeyToString(row.key) +
                              " absent from the unfiltered answer");
    }
    for (const HavingCondition& cond : having) {
      double value = ref->aggregates[cond.aggregate_index];
      if (!PassesWithSlack(cond, value)) {
        return Status::Internal(
            label + " HAVING kept group " + GroupKeyToString(row.key) +
            " whose aggregate " + std::to_string(value) +
            " clearly fails " + cond.ToString());
      }
    }
  }
  for (const GroupResult& ref : reference.rows()) {
    bool robust = true;
    for (const HavingCondition& cond : having) {
      robust = robust &&
               PassesRobustly(cond, ref.aggregates[cond.aggregate_index]);
    }
    if (robust && filtered.Find(ref.key) == nullptr) {
      return Status::Internal(label + " HAVING dropped group " +
                              GroupKeyToString(ref.key) +
                              " that clearly passes every condition");
    }
  }
  return Status::OK();
}

std::unique_ptr<SampleMaintainer> MakeMaintainer(
    const Table& table, const std::vector<size_t>& grouping,
    AllocationStrategy strategy, uint64_t sample_size, uint64_t seed) {
  switch (strategy) {
    case AllocationStrategy::kHouse:
      return MakeHouseMaintainer(table.schema(), grouping, sample_size, seed);
    case AllocationStrategy::kSenate:
      return MakeSenateMaintainer(table.schema(), grouping, sample_size, seed);
    case AllocationStrategy::kBasicCongress:
      return MakeBasicCongressMaintainer(table.schema(), grouping,
                                         sample_size, seed);
    case AllocationStrategy::kCongress:
      return MakeCongressMaintainer(table.schema(), grouping, sample_size,
                                    seed);
  }
  return nullptr;
}

Status FeedRows(SampleMaintainer* maintainer, const Table& table,
                size_t begin, size_t end) {
  std::vector<Value> row;
  for (size_t r = begin; r < end; ++r) {
    row.clear();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.push_back(table.GetValue(r, c));
    }
    CONGRESS_RETURN_NOT_OK(maintainer->Insert(row));
  }
  return Status::OK();
}

}  // namespace

Status CheckSamplesIdentical(const StratifiedSample& a,
                             const StratifiedSample& b,
                             const std::string& label_a,
                             const std::string& label_b) {
  auto mismatch = [&](const std::string& what) {
    return Status::Internal("samples disagree (" + label_a + " vs " +
                            label_b + "): " + what);
  };
  if (a.num_rows() != b.num_rows()) {
    return mismatch("row counts " + std::to_string(a.num_rows()) + " vs " +
                    std::to_string(b.num_rows()));
  }
  if (a.strata().size() != b.strata().size()) {
    return mismatch("stratum counts " + std::to_string(a.strata().size()) +
                    " vs " + std::to_string(b.strata().size()));
  }
  for (size_t s = 0; s < a.strata().size(); ++s) {
    const Stratum& sa = a.strata()[s];
    const Stratum& sb = b.strata()[s];
    if (sa.key != sb.key || sa.population != sb.population ||
        sa.sample_count != sb.sample_count) {
      return mismatch("stratum " + std::to_string(s) + ": " +
                      GroupKeyToString(sa.key) + " pop=" +
                      std::to_string(sa.population) + " n=" +
                      std::to_string(sa.sample_count) + " vs " +
                      GroupKeyToString(sb.key) + " pop=" +
                      std::to_string(sb.population) + " n=" +
                      std::to_string(sb.sample_count));
    }
  }
  if (a.row_strata() != b.row_strata()) {
    return mismatch("row->stratum mappings differ");
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.rows().num_columns(); ++c) {
      if (a.rows().GetValue(r, c) != b.rows().GetValue(r, c)) {
        return mismatch("row " + std::to_string(r) + " column " +
                        std::to_string(c) + ": " +
                        a.rows().GetValue(r, c).ToString() + " vs " +
                        b.rows().GetValue(r, c).ToString());
      }
    }
  }
  return Status::OK();
}

Status CheckResultsEqual(const QueryResult& a, const QueryResult& b,
                         double rel_tol, const std::string& label_a,
                         const std::string& label_b) {
  if (a.num_groups() != b.num_groups()) {
    return Status::Internal(label_a + " has " +
                            std::to_string(a.num_groups()) + " groups, " +
                            label_b + " has " +
                            std::to_string(b.num_groups()));
  }
  for (const GroupResult& row : a.rows()) {
    const GroupResult* other = b.Find(row.key);
    if (other == nullptr) {
      return Status::Internal("group " + GroupKeyToString(row.key) +
                              " present in " + label_a + " but missing from " +
                              label_b);
    }
    if (row.aggregates.size() != other->aggregates.size()) {
      return Status::Internal("group " + GroupKeyToString(row.key) +
                              ": aggregate counts differ between " + label_a +
                              " and " + label_b);
    }
    for (size_t i = 0; i < row.aggregates.size(); ++i) {
      double x = row.aggregates[i];
      double y = other->aggregates[i];
      bool equal;
      if (rel_tol == 0.0) {
        equal = x == y;
      } else {
        double scale = std::max(std::fabs(x), std::fabs(y));
        equal = std::fabs(x - y) <= rel_tol * scale + 1e-9;
      }
      if (!equal) {
        return Status::Internal(
            "group " + GroupKeyToString(row.key) + " aggregate " +
            std::to_string(i) + ": " + label_a + "=" + std::to_string(x) +
            " vs " + label_b + "=" + std::to_string(y) +
            (rel_tol == 0.0 ? " (bit-exact required)"
                            : " (rel_tol=" + std::to_string(rel_tol) + ")"));
      }
    }
  }
  return Status::OK();
}

Status CheckRewriterAgreement(const StratifiedSample& sample,
                              const GroupByQuery& query) {
  GroupByQuery stripped = query;
  stripped.having.clear();

  Rewriter rewriter(sample);
  auto integrated = rewriter.Answer(stripped, RewriteStrategy::kIntegrated);
  CONGRESS_RETURN_NOT_OK(integrated.status());

  const RewriteStrategy others[] = {RewriteStrategy::kNestedIntegrated,
                                    RewriteStrategy::kNormalized,
                                    RewriteStrategy::kKeyNormalized};
  for (RewriteStrategy strategy : others) {
    auto answer = rewriter.Answer(stripped, strategy);
    CONGRESS_RETURN_NOT_OK(answer.status());
    CONGRESS_RETURN_NOT_OK(CheckResultsEqual(
        *integrated, *answer, 1e-6, "Integrated",
        RewriteStrategyToString(strategy)));
  }

  const SampleMoments moments = SampleMoments::Compute(sample);
  auto estimate = EstimateGroupBy(sample, moments, stripped);
  CONGRESS_RETURN_NOT_OK(estimate.status());
  CONGRESS_RETURN_NOT_OK(CheckResultsEqual(*integrated,
                                           estimate->ToQueryResult(), 1e-6,
                                           "Integrated", "estimator"));

  if (query.having.empty()) return Status::OK();

  // HAVING is evaluated on estimates, so membership is only
  // bound-respecting: each plan's survivors must be defensible against the
  // shared unfiltered values.
  const RewriteStrategy all[] = {RewriteStrategy::kIntegrated,
                                 RewriteStrategy::kNestedIntegrated,
                                 RewriteStrategy::kNormalized,
                                 RewriteStrategy::kKeyNormalized};
  for (RewriteStrategy strategy : all) {
    auto filtered = rewriter.Answer(query, strategy);
    CONGRESS_RETURN_NOT_OK(filtered.status());
    CONGRESS_RETURN_NOT_OK(CheckHavingMembership(
        *integrated, query.having, *filtered,
        RewriteStrategyToString(strategy)));
  }
  auto filtered_estimate = EstimateGroupBy(sample, moments, query);
  CONGRESS_RETURN_NOT_OK(filtered_estimate.status());
  return CheckHavingMembership(*integrated, query.having,
                               filtered_estimate->ToQueryResult(),
                               "estimator");
}

Status CheckFullSampleMatchesExact(const Table& table,
                                   const std::vector<size_t>& grouping,
                                   AllocationStrategy strategy,
                                   const GroupByQuery& query, uint64_t seed) {
  Random rng(seed);
  auto sample = BuildSample(table, grouping, strategy,
                            static_cast<double>(table.num_rows()), &rng);
  CONGRESS_RETURN_NOT_OK(sample.status());
  for (const Stratum& stratum : sample->strata()) {
    if (stratum.sample_count != stratum.population) {
      return Status::Internal(
          std::string(AllocationStrategyToString(strategy)) +
          " did not fully sample group " + GroupKeyToString(stratum.key) +
          " at X = N: " + std::to_string(stratum.sample_count) + "/" +
          std::to_string(stratum.population));
    }
  }

  auto exact = ExecuteExact(table, query);
  CONGRESS_RETURN_NOT_OK(exact.status());

  auto estimate =
      EstimateGroupBy(*sample, SampleMoments::Compute(*sample), query);
  CONGRESS_RETURN_NOT_OK(estimate.status());
  CONGRESS_RETURN_NOT_OK(CheckResultsEqual(*exact,
                                           estimate->ToQueryResult(), 1e-9,
                                           "exact", "estimator@100%"));

  Rewriter rewriter(*sample);
  const RewriteStrategy all[] = {RewriteStrategy::kIntegrated,
                                 RewriteStrategy::kNestedIntegrated,
                                 RewriteStrategy::kNormalized,
                                 RewriteStrategy::kKeyNormalized};
  for (RewriteStrategy rewrite : all) {
    auto answer = rewriter.Answer(query, rewrite);
    CONGRESS_RETURN_NOT_OK(answer.status());
    CONGRESS_RETURN_NOT_OK(CheckResultsEqual(
        *exact, *answer, 1e-9, "exact",
        std::string(RewriteStrategyToString(rewrite)) + "@100%"));
  }
  return Status::OK();
}

Status CheckThreadInvariance(const Table& table,
                             const StratifiedSample& sample,
                             const GroupByQuery& query) {
  // A small morsel size forces real fan-out even on harness-sized tables.
  ExecutorOptions serial;
  serial.num_threads = 1;
  serial.morsel_size = 512;

  auto exact1 = ExecuteExact(table, query, serial);
  CONGRESS_RETURN_NOT_OK(exact1.status());
  const SampleMoments moments = SampleMoments::Compute(sample);
  auto estimate1 = EstimateGroupBy(sample, moments, query, {}, serial);
  CONGRESS_RETURN_NOT_OK(estimate1.status());
  Rewriter rewriter(sample);
  auto integrated1 =
      rewriter.Answer(query, RewriteStrategy::kIntegrated, serial);
  CONGRESS_RETURN_NOT_OK(integrated1.status());
  auto normalized1 =
      rewriter.Answer(query, RewriteStrategy::kNormalized, serial);
  CONGRESS_RETURN_NOT_OK(normalized1.status());

  for (size_t threads : {size_t{4}, size_t{8}}) {
    ExecutorOptions parallel = serial;
    parallel.num_threads = threads;
    const std::string suffix = "@" + std::to_string(threads) + "t";

    auto exact_t = ExecuteExact(table, query, parallel);
    CONGRESS_RETURN_NOT_OK(exact_t.status());
    CONGRESS_RETURN_NOT_OK(
        CheckResultsEqual(*exact1, *exact_t, 0.0, "exact@1t",
                          "exact" + suffix));

    auto estimate_t = EstimateGroupBy(sample, moments, query, {}, parallel);
    CONGRESS_RETURN_NOT_OK(estimate_t.status());
    CONGRESS_RETURN_NOT_OK(CheckResultsEqual(
        estimate1->ToQueryResult(), estimate_t->ToQueryResult(), 0.0,
        "estimator@1t", "estimator" + suffix));
    // The determinism contract covers the error bounds too, not just the
    // point estimates.
    for (size_t g = 0; g < estimate1->num_groups(); ++g) {
      const ApproximateGroupRow r1 = estimate1->row(g);
      const ApproximateGroupRow rt = estimate_t->row(g);
      if (r1.support != rt.support ||
          !std::ranges::equal(r1.std_errors, rt.std_errors) ||
          !std::ranges::equal(r1.bounds, rt.bounds)) {
        return Status::Internal(
            "estimator bounds for group " + GroupKeyToString(r1.key) +
            " differ between 1 and " + std::to_string(threads) + " threads");
      }
    }

    auto integrated_t =
        rewriter.Answer(query, RewriteStrategy::kIntegrated, parallel);
    CONGRESS_RETURN_NOT_OK(integrated_t.status());
    CONGRESS_RETURN_NOT_OK(CheckResultsEqual(*integrated1, *integrated_t, 0.0,
                                             "Integrated@1t",
                                             "Integrated" + suffix));
    auto normalized_t =
        rewriter.Answer(query, RewriteStrategy::kNormalized, parallel);
    CONGRESS_RETURN_NOT_OK(normalized_t.status());
    CONGRESS_RETURN_NOT_OK(CheckResultsEqual(*normalized1, *normalized_t, 0.0,
                                             "Normalized@1t",
                                             "Normalized" + suffix));
  }
  return Status::OK();
}

namespace {

/// Forwarding wrapper that hides the concrete predicate type, so the
/// virtual MatchBatch resolves to the Predicate base default — the pure
/// per-row scalar loop. Running a query through this wrapper exercises
/// the exact same executor code with the typed batch kernels disabled.
class OpaquePredicate final : public Predicate {
 public:
  explicit OpaquePredicate(PredicatePtr inner) : inner_(std::move(inner)) {}
  bool Matches(const Table& table, size_t row) const override {
    return inner_->Matches(table, row);
  }
  std::string ToString(const Schema* schema) const override {
    return inner_->ToString(schema);
  }

 private:
  PredicatePtr inner_;
};

/// Same trick for expressions: only scalar Eval, so EvalBatch falls back
/// to the per-row default.
class OpaqueExpression final : public Expression {
 public:
  explicit OpaqueExpression(ExpressionPtr inner) : inner_(std::move(inner)) {}
  double Eval(const Table& table, size_t row) const override {
    return inner_->Eval(table, row);
  }
  Status Validate(const Schema& schema) const override {
    return inner_->Validate(schema);
  }
  std::string ToString(const Schema* schema) const override {
    return inner_->ToString(schema);
  }

 private:
  ExpressionPtr inner_;
};

/// The query with every batch-capable node wrapped opaque: the scalar
/// reference arm of the vectorization differential.
GroupByQuery ScalarizeQuery(const GroupByQuery& query) {
  GroupByQuery scalar = query;
  if (scalar.predicate != nullptr) {
    scalar.predicate = std::make_shared<OpaquePredicate>(scalar.predicate);
  }
  for (AggregateSpec& spec : scalar.aggregates) {
    if (spec.expression != nullptr) {
      spec.expression = std::make_shared<OpaqueExpression>(spec.expression);
    }
  }
  return scalar;
}

/// Equal bits, so a NaN equals itself and -0.0 differs from +0.0.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Equal key cells: same types, and equal bits for doubles.
bool SameKeyBits(std::span<const Value> a, std::span<const Value> b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); ++c) {
    const bool same = a[c].type() == b[c].type() &&
                      (a[c].is_double()
                           ? SameBits(a[c].AsDouble(), b[c].AsDouble())
                           : a[c] == b[c]);
    if (!same) return false;
  }
  return true;
}

}  // namespace

Status CheckExactIdentical(const QueryResult& a, const QueryResult& b,
                           const std::string& label) {
  if (a.num_groups() != b.num_groups()) {
    return Status::Internal(label + ": " + std::to_string(a.num_groups()) +
                            " vs " + std::to_string(b.num_groups()) +
                            " groups");
  }
  for (size_t i = 0; i < a.num_groups(); ++i) {
    const GroupResult& x = a.rows()[i];
    const GroupResult& y = b.rows()[i];
    if (!SameKeyBits(x.key, y.key) ||
        !std::ranges::equal(x.aggregates, y.aggregates, SameBits)) {
      return Status::Internal(label + ": row " + std::to_string(i) + " (" +
                              GroupKeyToString(x.key) + " vs " +
                              GroupKeyToString(y.key) + ") differs");
    }
  }
  return Status::OK();
}

namespace {

/// Group ordering must match too: SortByKey should make it canonical,
/// but the bit-identity contract covers emission order, so compare the
/// key sequences directly rather than by lookup.
Status CheckSameOrder(const QueryResult& a, const QueryResult& b,
                      const std::string& label) {
  if (a.rows().size() != b.rows().size()) {
    return Status::Internal(label + ": group counts differ");
  }
  for (size_t i = 0; i < a.rows().size(); ++i) {
    if (!(a.rows()[i].key == b.rows()[i].key)) {
      return Status::Internal(label + ": group order diverges at row " +
                              std::to_string(i) + " (" +
                              GroupKeyToString(a.rows()[i].key) + " vs " +
                              GroupKeyToString(b.rows()[i].key) + ")");
    }
  }
  return Status::OK();
}

}  // namespace

Status CheckVectorizedIdentity(const Table& table,
                               const StratifiedSample& sample,
                               const GroupByQuery& query) {
  const GroupByQuery scalar = ScalarizeQuery(query);
  const ZoneMap zones = ZoneMap::Build(table);
  const SampleMoments moments = SampleMoments::Compute(sample);
  Rewriter rewriter(sample);
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    ExecutorOptions options;
    options.num_threads = threads;
    options.morsel_size = 512;  // Force fan-out on harness-sized tables.
    const std::string suffix = "@" + std::to_string(threads) + "t";

    auto vec = ExecuteExact(table, query, options);
    CONGRESS_RETURN_NOT_OK(vec.status());
    auto ref = ExecuteExact(table, scalar, options);
    CONGRESS_RETURN_NOT_OK(ref.status());
    CONGRESS_RETURN_NOT_OK(CheckResultsEqual(
        *ref, *vec, 0.0, "exact-scalar" + suffix, "exact-vectorized" + suffix));
    CONGRESS_RETURN_NOT_OK(CheckSameOrder(*ref, *vec, "exact" + suffix));
    // Classifying batches by zone bounds keeps the filter's rows.
    auto zoned = ExecuteExact(table, query, options, &zones);
    CONGRESS_RETURN_NOT_OK(zoned.status());
    CONGRESS_RETURN_NOT_OK(
        CheckExactIdentical(*vec, *zoned, "exact-zoned" + suffix));

    auto est_vec = EstimateGroupBy(sample, moments, query, {}, options);
    CONGRESS_RETURN_NOT_OK(est_vec.status());
    auto est_ref = EstimateGroupBy(sample, moments, scalar, {}, options);
    CONGRESS_RETURN_NOT_OK(est_ref.status());
    CONGRESS_RETURN_NOT_OK(CheckResultsEqual(
        est_ref->ToQueryResult(), est_vec->ToQueryResult(), 0.0,
        "estimator-scalar" + suffix, "estimator-vectorized" + suffix));
    // The scalar/vectorized contract covers the error bounds too.
    for (size_t g = 0; g < est_ref->num_groups(); ++g) {
      const ApproximateGroupRow r = est_ref->row(g);
      const ApproximateGroupRow v = est_vec->row(g);
      if (r.support != v.support ||
          !std::ranges::equal(r.std_errors, v.std_errors) ||
          !std::ranges::equal(r.bounds, v.bounds)) {
        return Status::Internal(
            "estimator bounds for group " + GroupKeyToString(r.key) +
            " differ between scalar and vectorized paths" + suffix);
      }
    }

    auto rw_vec = rewriter.Answer(query, RewriteStrategy::kIntegrated, options);
    CONGRESS_RETURN_NOT_OK(rw_vec.status());
    auto rw_ref =
        rewriter.Answer(scalar, RewriteStrategy::kIntegrated, options);
    CONGRESS_RETURN_NOT_OK(rw_ref.status());
    CONGRESS_RETURN_NOT_OK(CheckResultsEqual(*rw_ref, *rw_vec, 0.0,
                                             "Integrated-scalar" + suffix,
                                             "Integrated-vectorized" + suffix));
  }
  return Status::OK();
}

Status CheckApproximateIdentical(const ApproximateResult& a,
                                 const ApproximateResult& b,
                                 const std::string& label) {
  if (a.num_groups() != b.num_groups()) {
    return Status::Internal(label + ": " + std::to_string(a.num_groups()) +
                            " vs " + std::to_string(b.num_groups()) +
                            " groups");
  }
  for (size_t i = 0; i < a.num_groups(); ++i) {
    const ApproximateGroupRow x = a.row(i);
    const ApproximateGroupRow y = b.row(i);
    const bool same = SameKeyBits(x.key, y.key) && x.support == y.support &&
                      x.provenance == y.provenance &&
                      std::ranges::equal(a.row_numbers(i), b.row_numbers(i),
                                         SameBits);
    if (!same) {
      return Status::Internal(label + ": row " + std::to_string(i) + " (" +
                              GroupKeyToString(x.key) + " vs " +
                              GroupKeyToString(y.key) + ") differs");
    }
  }
  return Status::OK();
}

Status CheckMomentsIdentity(const StratifiedSample& sample,
                            const GroupByQuery& query) {
  GroupByQuery from_moments = query;
  from_moments.predicate = nullptr;
  const std::vector<size_t>& grouping = sample.grouping_columns();
  for (size_t c : query.group_columns) {
    if (std::find(grouping.begin(), grouping.end(), c) == grouping.end()) {
      return Status::OK();  // Not covered: folds finer units.
    }
  }
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.expression != nullptr) return Status::OK();  // Folds rows.
  }
  // A TRUE predicate the estimator cannot see through forces the row fold.
  GroupByQuery from_rows = from_moments;
  from_rows.predicate = std::make_shared<OpaquePredicate>(MakeTruePredicate());

  const SampleMoments moments = SampleMoments::Compute(sample);
  EstimatorOptions hoeffding;  // Bounds that read max|v|.
  hoeffding.bound_method = BoundMethod::kHoeffding;
  for (uint32_t s = 0; s < sample.strata().size(); s += 3) {
    hoeffding.excluded_strata.push_back(s);
  }
  for (const EstimatorOptions& options : {EstimatorOptions{}, hoeffding}) {
    const std::string label =
        std::string("moments vs row fold, ") +
        BoundMethodToString(options.bound_method) + ", " +
        std::to_string(options.excluded_strata.size()) + " strata excluded";
    obs::Scope trace("query");
    ExecutorOptions execution;
    execution.scope = &trace;
    auto moments_answer =
        EstimateGroupBy(sample, moments, from_moments, options, execution);
    CONGRESS_RETURN_NOT_OK(moments_answer.status());
#ifndef CONGRESS_DISABLE_OBS
    if (trace.Find("estimate/rollup") == nullptr) {
      return Status::Internal(label + ": the moments path was not taken");
    }
#endif
    auto rows_answer = EstimateGroupBy(sample, moments, from_rows, options);
    CONGRESS_RETURN_NOT_OK(rows_answer.status());
    CONGRESS_RETURN_NOT_OK(
        CheckApproximateIdentical(*moments_answer, *rows_answer, label));
  }
  return Status::OK();
}

Status CheckSqlAgreement(const Table& table, const std::string& table_name,
                         const GroupByQuery& query, const std::string& sql) {
  std::string parsed_name;
  auto parsed = sql::ParseQuery(sql, table.schema(), &parsed_name);
  if (!parsed.ok()) {
    return Status::Internal("generated SQL failed to parse/bind: " +
                            parsed.status().ToString() + " — SQL: " + sql);
  }
  if (parsed_name != table_name) {
    return Status::Internal("parser bound table '" + parsed_name +
                            "', expected '" + table_name + "'");
  }
  auto from_program = ExecuteExact(table, query);
  CONGRESS_RETURN_NOT_OK(from_program.status());
  auto from_sql = ExecuteExact(table, *parsed);
  CONGRESS_RETURN_NOT_OK(from_sql.status());
  Status st = CheckResultsEqual(*from_program, *from_sql, 0.0,
                                "programmatic", "sql-parsed");
  if (!st.ok()) {
    return Status::Internal(st.message() + " — SQL: " + sql);
  }
  return Status::OK();
}

Status CheckMaintenanceDeterminism(const Table& table,
                                   const std::vector<size_t>& grouping,
                                   AllocationStrategy strategy,
                                   uint64_t sample_size, uint64_t seed) {
  auto first = BuildSampleOnePass(table, grouping, strategy, sample_size,
                                  seed);
  CONGRESS_RETURN_NOT_OK(first.status());
  auto second = BuildSampleOnePass(table, grouping, strategy, sample_size,
                                   seed);
  CONGRESS_RETURN_NOT_OK(second.status());
  CONGRESS_RETURN_NOT_OK(CheckSamplesIdentical(
      *first, *second,
      std::string(AllocationStrategyToString(strategy)) + " run 1",
      "run 2"));

  // Snapshot() must be idempotent: lazy evictions settle on the first
  // call, so a second snapshot without intervening inserts is identical.
  auto maintainer =
      MakeMaintainer(table, grouping, strategy, sample_size, seed);
  CONGRESS_RETURN_NOT_OK(FeedRows(maintainer.get(), table, 0,
                                  table.num_rows()));
  auto snap_a = maintainer->Snapshot();
  CONGRESS_RETURN_NOT_OK(snap_a.status());
  auto snap_b = maintainer->Snapshot();
  CONGRESS_RETURN_NOT_OK(snap_b.status());
  return CheckSamplesIdentical(
      *snap_a, *snap_b,
      std::string(AllocationStrategyToString(strategy)) + " snapshot 1",
      "snapshot 2");
}

Status CheckMaintenanceVsRebuild(const Table& table,
                                 const std::vector<size_t>& grouping,
                                 AllocationStrategy strategy,
                                 uint64_t sample_size, uint64_t seed) {
  const size_t n = table.num_rows();
  const size_t half = n / 2;
  auto maintainer =
      MakeMaintainer(table, grouping, strategy, sample_size, seed);

  CONGRESS_RETURN_NOT_OK(FeedRows(maintainer.get(), table, 0, half));
  auto mid = maintainer->Snapshot();
  CONGRESS_RETURN_NOT_OK(mid.status());

  // The mid-stream snapshot sees exactly the prefix populations.
  std::unordered_map<GroupKey, uint64_t, GroupKeyHash> prefix_counts;
  for (size_t r = 0; r < half; ++r) {
    ++prefix_counts[table.KeyForRow(r, grouping)];
  }
  if (mid->strata().size() != prefix_counts.size()) {
    return Status::Internal(
        "mid-stream snapshot has " + std::to_string(mid->strata().size()) +
        " strata, prefix has " + std::to_string(prefix_counts.size()) +
        " groups");
  }
  for (const Stratum& stratum : mid->strata()) {
    auto it = prefix_counts.find(stratum.key);
    if (it == prefix_counts.end() || it->second != stratum.population) {
      return Status::Internal(
          "mid-stream population of group " + GroupKeyToString(stratum.key) +
          " is " + std::to_string(stratum.population) +
          ", prefix truth is " +
          std::to_string(it == prefix_counts.end() ? 0 : it->second));
    }
  }

  // Theorem 6.1: the maintainer keeps absorbing inserts after a snapshot.
  CONGRESS_RETURN_NOT_OK(FeedRows(maintainer.get(), table, half, n));
  auto final_snap = maintainer->Snapshot();
  CONGRESS_RETURN_NOT_OK(final_snap.status());

  auto truth = CountGroups(table, grouping);
  if (final_snap->strata().size() != truth.size()) {
    return Status::Internal(
        "final snapshot has " + std::to_string(final_snap->strata().size()) +
        " strata, relation has " + std::to_string(truth.size()) + " groups");
  }
  uint64_t total_kept = 0;
  for (const Stratum& stratum : final_snap->strata()) {
    auto it = truth.find(stratum.key);
    uint64_t pop = it == truth.end() ? 0 : it->second;
    if (stratum.population != pop) {
      return Status::Internal(
          "final population of group " + GroupKeyToString(stratum.key) +
          " is " + std::to_string(stratum.population) + ", truth is " +
          std::to_string(pop));
    }
    if (stratum.sample_count > stratum.population) {
      return Status::Internal(
          "group " + GroupKeyToString(stratum.key) + " oversampled: " +
          std::to_string(stratum.sample_count) + " > " +
          std::to_string(stratum.population));
    }
    total_kept += stratum.sample_count;
  }

  // House and Senate land on deterministic per-group sizes, so the
  // interrupted maintainer must agree exactly with a rebuild from scratch
  // — Snapshot() mid-stream may not perturb *how much* is kept.
  auto rebuild = BuildSampleOnePass(table, grouping, strategy, sample_size,
                                    seed);
  CONGRESS_RETURN_NOT_OK(rebuild.status());
  if (strategy == AllocationStrategy::kHouse) {
    if (total_kept != rebuild->num_rows()) {
      return Status::Internal(
          "House with mid-stream snapshot kept " +
          std::to_string(total_kept) + " tuples, rebuild kept " +
          std::to_string(rebuild->num_rows()));
    }
  } else if (strategy == AllocationStrategy::kSenate) {
    for (const Stratum& stratum : final_snap->strata()) {
      auto idx = rebuild->StratumIndex(stratum.key);
      CONGRESS_RETURN_NOT_OK(idx.status());
      uint64_t rebuilt = rebuild->strata()[*idx].sample_count;
      if (stratum.sample_count != rebuilt) {
        return Status::Internal(
            "Senate group " + GroupKeyToString(stratum.key) +
            " keeps " + std::to_string(stratum.sample_count) +
            " with a mid-stream snapshot but " + std::to_string(rebuilt) +
            " on rebuild");
      }
    }
  }
  return Status::OK();
}

Status CheckAllocationInvariants(const Table& table,
                                 const std::vector<size_t>& grouping,
                                 AllocationStrategy strategy,
                                 double sample_size) {
  GroupStatistics stats = GroupStatistics::Compute(table, grouping);
  Allocation alloc = Allocate(strategy, stats, sample_size);
  const std::string name = AllocationStrategyToString(strategy);

  if (alloc.expected_sizes.size() != stats.num_groups()) {
    return Status::Internal(name + " allocated " +
                            std::to_string(alloc.expected_sizes.size()) +
                            " groups, census has " +
                            std::to_string(stats.num_groups()));
  }
  const bool space_for_all =
      strategy != AllocationStrategy::kHouse &&
      sample_size >= static_cast<double>(stats.num_groups());
  for (size_t g = 0; g < alloc.expected_sizes.size(); ++g) {
    double size = alloc.expected_sizes[g];
    if (!std::isfinite(size) || size < 0.0) {
      return Status::Internal(name + " allocated non-finite or negative " +
                              std::to_string(size) + " to group " +
                              GroupKeyToString(stats.keys()[g]));
    }
    if (space_for_all && size <= 0.0) {
      return Status::Internal(name + " starved group " +
                              GroupKeyToString(stats.keys()[g]) +
                              " despite X >= m");
    }
  }
  if (!(alloc.scale_down_factor > 0.0 && alloc.scale_down_factor <= 1.0)) {
    return Status::Internal(name + " scale-down factor " +
                            std::to_string(alloc.scale_down_factor) +
                            " outside (0, 1]");
  }

  // Eqs. 4-6: after rescaling, the expected total is min(X, N).
  const double target = std::min(
      sample_size, static_cast<double>(stats.total_tuples()));
  if (std::fabs(alloc.Total() - target) >
      1e-6 * std::max(1.0, sample_size)) {
    return Status::Internal(
        name + " expected total " + std::to_string(alloc.Total()) +
        " != min(X, N) = " + std::to_string(target));
  }

  std::vector<uint64_t> rounded = RoundAllocation(stats, alloc);
  uint64_t rounded_total = 0;
  for (size_t g = 0; g < rounded.size(); ++g) {
    if (rounded[g] > stats.counts()[g]) {
      return Status::Internal(
          name + " rounding gave group " + GroupKeyToString(stats.keys()[g]) +
          " " + std::to_string(rounded[g]) + " slots for " +
          std::to_string(stats.counts()[g]) + " tuples");
    }
    rounded_total += rounded[g];
  }
  const uint64_t rounded_target =
      std::min(static_cast<uint64_t>(std::llround(alloc.Total())),
               stats.total_tuples());
  if (rounded_total != rounded_target) {
    return Status::Internal(name + " rounded total " +
                            std::to_string(rounded_total) + " != " +
                            std::to_string(rounded_target));
  }
  return Status::OK();
}

Status CheckCrashRecovery(const Table& table,
                          const std::vector<size_t>& grouping,
                          AllocationStrategy strategy, uint64_t sample_size,
                          uint64_t seed) {
  namespace res = ::congress::resilience;
  const size_t n = table.num_rows();
  if (n < 4) return Status::OK();
  const size_t k = n / 2;
  const std::string name = AllocationStrategyToString(strategy);
  const std::string path =
      "/tmp/congress_crash_" + std::to_string(static_cast<long>(::getpid())) +
      "_" + std::to_string(seed) + "_" + name + ".snap";
  struct PathCleanup {
    const std::string& p;
    ~PathCleanup() { std::remove(p.c_str()); }
  } cleanup{path};

  res::CheckpointPolicy policy;
  policy.path = path;
  policy.every_n_inserts = k;

  res::CheckpointingMaintainer ckpt(
      MakeMaintainer(table, grouping, strategy, sample_size, seed), strategy,
      sample_size, seed, policy);
  CONGRESS_RETURN_NOT_OK(FeedRows(&ckpt, table, 0, k));
  if (ckpt.checkpoints_written() != 1 ||
      !ckpt.last_checkpoint_status().ok()) {
    return Status::Internal(
        name + ": expected exactly 1 clean checkpoint after " +
        std::to_string(k) + " inserts, got " +
        std::to_string(ckpt.checkpoints_written()) + " (last: " +
        ckpt.last_checkpoint_status().ToString() + ")");
  }

  // "Crash": a fresh process has only the snapshot file.
  auto recovered = res::RecoverSnapshot(path);
  CONGRESS_RETURN_NOT_OK(recovered.status());
  if (!recovered->report.clean) {
    return Status::Internal(name + ": clean checkpoint recovered as damaged: " +
                            recovered->report.ToString());
  }
  if (recovered->image.tuples_seen != k ||
      recovered->image.strategy != static_cast<uint32_t>(strategy) ||
      recovered->image.seed != seed ||
      recovered->image.target_size != sample_size) {
    return Status::Internal(
        name + ": snapshot counters did not round-trip (tuples_seen " +
        std::to_string(recovered->image.tuples_seen) + " want " +
        std::to_string(k) + ")");
  }

  // The reference: an uninterrupted run snapshotted at the same stream
  // position (so its RNG stays in lockstep with the checkpointed run).
  auto reference = MakeMaintainer(table, grouping, strategy, sample_size,
                                  seed);
  CONGRESS_RETURN_NOT_OK(FeedRows(reference.get(), table, 0, k));
  auto ref_mid = reference->Snapshot();
  CONGRESS_RETURN_NOT_OK(ref_mid.status());
  CONGRESS_RETURN_NOT_OK(CheckSamplesIdentical(
      *ref_mid, recovered->image.sample, name + " uninterrupted@checkpoint",
      "recovered"));

  // Both runs finish the stream; the decorated run fires its second
  // checkpoint at 2k, so the reference mirrors that snapshot position.
  CONGRESS_RETURN_NOT_OK(FeedRows(&ckpt, table, k, n));
  CONGRESS_RETURN_NOT_OK(FeedRows(reference.get(), table, k, 2 * k));
  CONGRESS_RETURN_NOT_OK(reference->Snapshot().status());
  CONGRESS_RETURN_NOT_OK(FeedRows(reference.get(), table, 2 * k, n));
  auto final_ckpt = ckpt.Snapshot();
  CONGRESS_RETURN_NOT_OK(final_ckpt.status());
  auto final_ref = reference->Snapshot();
  CONGRESS_RETURN_NOT_OK(final_ref.status());
  CONGRESS_RETURN_NOT_OK(CheckSamplesIdentical(
      *final_ckpt, *final_ref, name + " checkpointed final",
      "uninterrupted final"));

#ifndef CONGRESS_DISABLE_FAILPOINTS
  // Bounded retry: a single injected fsync fault must be absorbed by the
  // second attempt, leaving a valid checkpoint behind.
  {
    res::ScopedFailpoint fsync_once("snapshot_io/fsync", uint64_t{1});
    res::CheckpointPolicy retry_policy = policy;
    retry_policy.max_attempts = 2;
    res::CheckpointingMaintainer retry_ckpt(
        MakeMaintainer(table, grouping, strategy, sample_size, seed),
        strategy, sample_size, seed, retry_policy);
    CONGRESS_RETURN_NOT_OK(FeedRows(&retry_ckpt, table, 0, k));
    if (res::FailpointRegistry::Global().FireCount("snapshot_io/fsync") !=
        1) {
      return Status::Internal(name + ": injected fsync fault never fired");
    }
    if (retry_ckpt.checkpoints_written() != 1 ||
        !retry_ckpt.last_checkpoint_status().ok()) {
      return Status::Internal(
          name + ": retry did not absorb the injected fsync fault: " +
          retry_ckpt.last_checkpoint_status().ToString());
    }
    auto retried = res::RecoverSnapshot(path);
    CONGRESS_RETURN_NOT_OK(retried.status());
    if (!retried->report.clean) {
      return Status::Internal(name + ": post-retry snapshot damaged: " +
                              retried->report.ToString());
    }
  }
#endif  // CONGRESS_DISABLE_FAILPOINTS
  return Status::OK();
}

Status CheckCorruptedSnapshotSalvage(const Table& table,
                                     const std::vector<size_t>& grouping,
                                     AllocationStrategy strategy,
                                     uint64_t sample_size, uint64_t seed) {
  namespace res = ::congress::resilience;
  const std::string name = AllocationStrategyToString(strategy);
  auto maintainer =
      MakeMaintainer(table, grouping, strategy, sample_size, seed);
  CONGRESS_RETURN_NOT_OK(FeedRows(maintainer.get(), table, 0,
                                  table.num_rows()));
  auto snap = maintainer->Snapshot();
  CONGRESS_RETURN_NOT_OK(snap.status());

  res::SnapshotImage image;
  image.strategy = static_cast<uint32_t>(strategy);
  image.target_size = sample_size;
  image.seed = seed;
  image.tuples_seen = maintainer->tuples_seen();
  image.sample = std::move(*snap);
  const StratifiedSample& original = image.sample;
  if (original.strata().size() < 2) return Status::OK();

  std::string bytes;
  CONGRESS_RETURN_NOT_OK(res::SerializeSnapshot(image, &bytes));

  auto u32_at = [&bytes](size_t off) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[off + i]))
           << (8 * i);
    }
    return v;
  };
  auto u64_at = [&bytes](size_t off) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[off + i]))
           << (8 * i);
    }
    return v;
  };

  // Walk the frames to locate every stratum section's payload.
  struct Span {
    size_t payload_off;
    size_t payload_len;
  };
  std::vector<Span> stratum_sections;
  size_t off = sizeof(res::kSnapshotMagic) + 4;
  while (off + 12 <= bytes.size()) {
    const uint32_t tag = u32_at(off);
    const size_t len = static_cast<size_t>(u64_at(off + 4));
    if (tag == res::kSectionStratum) {
      stratum_sections.push_back({off + 12, len});
    }
    off += 12 + len + 4;
  }
  if (stratum_sections.size() != original.strata().size()) {
    return Status::Internal(
        name + ": serialized " + std::to_string(stratum_sections.size()) +
        " stratum sections for " + std::to_string(original.strata().size()) +
        " strata");
  }

  // Flip one byte in one stratum's payload; its CRC must condemn exactly
  // that section.
  const size_t victim = static_cast<size_t>(seed % stratum_sections.size());
  std::string corrupted = bytes;
  corrupted[stratum_sections[victim].payload_off +
            stratum_sections[victim].payload_len / 2] ^=
      static_cast<char>(0x5A);

#ifndef CONGRESS_DISABLE_OBS
  const uint64_t salvaged_before =
      obs::MetricsRegistry::Global()
          .GetCounter("resilience.recovery_salvaged_strata")
          .value();
#endif
  auto recovered = res::RecoverSnapshotFromBytes(corrupted);
  CONGRESS_RETURN_NOT_OK(recovered.status());
  const res::RecoveryReport& report = recovered->report;
  if (report.clean || report.lost_strata != 1 ||
      report.corrupt_sections != 1 ||
      report.salvaged_strata != original.strata().size() - 1) {
    return Status::Internal(name + ": unexpected salvage report: " +
                            report.ToString());
  }
#ifndef CONGRESS_DISABLE_OBS
  const uint64_t salvaged_after =
      obs::MetricsRegistry::Global()
          .GetCounter("resilience.recovery_salvaged_strata")
          .value();
  if (salvaged_after != salvaged_before + report.salvaged_strata) {
    return Status::Internal(
        name + ": resilience.recovery_salvaged_strata did not advance by " +
        std::to_string(report.salvaged_strata));
  }
#endif

  // Expected survivors: the original sample minus the victim stratum,
  // rows in their original interleaved order.
  StratifiedSample expected(original.base_schema(),
                            original.grouping_columns());
  for (size_t s = 0; s < original.strata().size(); ++s) {
    if (s == victim) continue;
    CONGRESS_RETURN_NOT_OK(expected.DeclareStratum(
        original.strata()[s].key, original.strata()[s].population));
  }
  std::vector<Value> row;
  for (size_t r = 0; r < original.num_rows(); ++r) {
    if (original.row_strata()[r] == victim) continue;
    row.clear();
    for (size_t c = 0; c < original.rows().num_columns(); ++c) {
      row.push_back(original.rows().GetValue(r, c));
    }
    CONGRESS_RETURN_NOT_OK(expected.AppendRowValues(row));
  }
  CONGRESS_RETURN_NOT_OK(CheckSamplesIdentical(
      expected, recovered->image.sample, name + " expected survivors",
      "salvaged"));

  // Truncation mid-final-stratum: every complete section before the cut
  // salvages; the footer is gone so the report must say so.
  const Span& last = stratum_sections.back();
  std::string truncated =
      bytes.substr(0, last.payload_off + last.payload_len / 2);
  auto trunc = res::RecoverSnapshotFromBytes(truncated);
  CONGRESS_RETURN_NOT_OK(trunc.status());
  if (trunc->report.clean || !trunc->report.truncated ||
      trunc->report.footer_ok ||
      trunc->report.salvaged_strata != original.strata().size() - 1) {
    return Status::Internal(name + ": unexpected truncation report: " +
                            trunc->report.ToString());
  }

  // A damaged META section is unrecoverable by design.
  std::string meta_bad = bytes;
  meta_bad[sizeof(res::kSnapshotMagic) + 4 + 12 + 2] ^=
      static_cast<char>(0xFF);
  if (res::RecoverSnapshotFromBytes(meta_bad).ok()) {
    return Status::Internal(name + ": META corruption went undetected");
  }
  return Status::OK();
}

namespace {

/// Bit-for-bit equality of two approximate answers — keys, estimates,
/// standard errors, bounds, and support. Snapshot immutability means a
/// reader's answer must reproduce exactly from the snapshot it pinned.
Status CompareApproximateBitwise(const ApproximateResult& observed,
                                 const ApproximateResult& expected,
                                 const std::string& label) {
  if (observed.num_groups() != expected.num_groups()) {
    return Status::Internal(label + ": group count " +
                            std::to_string(observed.num_groups()) + " vs " +
                            std::to_string(expected.num_groups()));
  }
  for (const ApproximateGroupRow& row : observed.rows()) {
    const std::optional<ApproximateGroupRow> ref = expected.Find(row.key);
    if (!ref) {
      return Status::Internal(label + ": group " + GroupKeyToString(row.key) +
                              " absent from the serial recompute");
    }
    if (!std::ranges::equal(row.estimates, ref->estimates) ||
        !std::ranges::equal(row.std_errors, ref->std_errors) ||
        !std::ranges::equal(row.bounds, ref->bounds) ||
        row.support != ref->support) {
      return Status::Internal(label + ": group " + GroupKeyToString(row.key) +
                              " differs from the serial recompute");
    }
  }
  return Status::OK();
}

}  // namespace

Status CheckConcurrentSnapshotConsistency(const Table& table,
                                          const std::vector<size_t>& grouping,
                                          AllocationStrategy strategy,
                                          uint64_t sample_size,
                                          uint64_t seed) {
  const Schema& schema = table.schema();

  // SELECT g..., SUM(first numeric non-grouping column), COUNT(*).
  std::string numeric;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const Field& field = schema.field(c);
    const bool is_grouping =
        std::find(grouping.begin(), grouping.end(), c) != grouping.end();
    if (!is_grouping && field.type != DataType::kString) {
      numeric = field.name;
      break;
    }
  }
  std::string sql = "SELECT ";
  SynopsisConfig config;
  config.strategy = strategy;
  config.sample_size = sample_size;
  config.incremental = true;
  config.seed = seed;
  for (size_t c : grouping) {
    sql += schema.field(c).name + ", ";
    config.grouping_columns.push_back(schema.field(c).name);
  }
  if (!numeric.empty()) sql += "SUM(" + numeric + "), ";
  sql += "COUNT(*) FROM t GROUP BY " + config.grouping_columns[0];
  for (size_t g = 1; g < config.grouping_columns.size(); ++g) {
    sql += ", " + config.grouping_columns[g];
  }

  AquaEngine engine;
  CONGRESS_RETURN_NOT_OK(engine.RegisterTable("t", table, config));

  // Every published snapshot, pinned so it outlives later publishes; the
  // serial recompute below replays each reader answer against these.
  std::vector<std::shared_ptr<const AquaSnapshot>> published;
  {
    auto initial = engine.GetSnapshot("t");
    CONGRESS_RETURN_NOT_OK(initial.status());
    published.push_back(*initial);
  }

  constexpr size_t kReaders = 3;
  constexpr size_t kRounds = 6;
  constexpr size_t kBatch = 25;
  const std::string checkpoint_path =
      "/tmp/congress_concurrent_" +
      std::to_string(static_cast<long>(::getpid())) + ".snap";
  struct PathCleanup {
    const std::string& p;
    ~PathCleanup() { std::remove(p.c_str()); }
  } cleanup{checkpoint_path};

  struct Observation {
    uint64_t epoch;
    ApproximateResult result;
  };
  std::vector<std::vector<Observation>> observations(kReaders);
  std::vector<Status> reader_status(kReaders, Status::OK());
  std::atomic<bool> done{false};
  Status writer_status = Status::OK();

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto answer = engine.QueryResilient(sql);
        if (!answer.ok()) {
          reader_status[r] = answer.status();
          return;
        }
        if (answer->degradation.level != DegradationLevel::kNone) {
          reader_status[r] = Status::Internal(
              "reader saw a degraded answer with a healthy snapshot: " +
              answer->degradation.cause);
          return;
        }
        if (answer->epoch < last_epoch) {
          reader_status[r] = Status::Internal(
              "epoch went backwards: " + std::to_string(answer->epoch) +
              " after " + std::to_string(last_epoch));
          return;
        }
        last_epoch = answer->epoch;
        observations[r].push_back(
            {answer->epoch, std::move(answer->result)});
      }
    });
  }

  // Writer: insert a batch (recycling existing rows keeps the schema
  // trivially valid), publish via Refresh, and checkpoint every other
  // round to prove serialization never blocks or perturbs readers.
  std::vector<Value> row;
  for (size_t round = 0; round < kRounds && writer_status.ok(); ++round) {
    for (size_t i = 0; i < kBatch; ++i) {
      const size_t src = (round * kBatch + i) % table.num_rows();
      row.clear();
      for (size_t c = 0; c < table.num_columns(); ++c) {
        row.push_back(table.GetValue(src, c));
      }
      writer_status = engine.Insert("t", row);
      if (!writer_status.ok()) break;
    }
    if (!writer_status.ok()) break;
    writer_status = engine.Refresh("t");
    if (!writer_status.ok()) break;
    auto snapshot = engine.GetSnapshot("t");
    if (!snapshot.ok()) {
      writer_status = snapshot.status();
      break;
    }
    published.push_back(*snapshot);
    if (round % 2 == 1) {
      writer_status = engine.Checkpoint("t", checkpoint_path);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  CONGRESS_RETURN_NOT_OK(writer_status);
  for (size_t r = 0; r < kReaders; ++r) {
    CONGRESS_RETURN_NOT_OK(reader_status[r]);
  }

  // Serial recompute: every observed answer must be bit-identical to the
  // answer of the published snapshot carrying the same epoch.
  auto statement = sql::ParseSelect(sql);
  CONGRESS_RETURN_NOT_OK(statement.status());
  auto query = sql::Bind(*statement, schema);
  CONGRESS_RETURN_NOT_OK(query.status());
  std::unordered_map<uint64_t, const AquaSnapshot*> by_epoch;
  for (const auto& snapshot : published) {
    by_epoch[snapshot->epoch] = snapshot.get();
  }
  for (size_t r = 0; r < kReaders; ++r) {
    for (const Observation& obs : observations[r]) {
      auto it = by_epoch.find(obs.epoch);
      if (it == by_epoch.end()) {
        return Status::Internal(
            "reader " + std::to_string(r) + " answered from epoch " +
            std::to_string(obs.epoch) + " that was never published");
      }
      auto expected = it->second->synopsis->Answer(*query);
      CONGRESS_RETURN_NOT_OK(expected.status());
      CONGRESS_RETURN_NOT_OK(CompareApproximateBitwise(
          obs.result, *expected,
          "reader " + std::to_string(r) + " epoch " +
              std::to_string(obs.epoch)));
    }
  }
  return Status::OK();
}

Status CheckShardedIngestConsistency(const Table& table,
                                     const std::vector<size_t>& grouping,
                                     AllocationStrategy strategy,
                                     uint64_t sample_size, uint64_t seed) {
  const size_t n = table.num_rows();
  if (n < 2) return Status::InvalidArgument("table too small for the oracle");
  const std::string name = AllocationStrategyToString(strategy);

  auto row_at = [&](size_t r) {
    std::vector<Value> row;
    row.reserve(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.push_back(table.GetValue(r, c));
    }
    return row;
  };

  // Ground truth: exact per-group populations of the table.
  std::unordered_map<GroupKey, uint64_t, GroupKeyHash> exact_counts;
  for (size_t r = 0; r < n; ++r) {
    GroupKey key;
    key.reserve(grouping.size());
    for (size_t c : grouping) key.push_back(table.GetValue(r, c));
    exact_counts[std::move(key)] += 1;
  }

  // A published sample is *valid* when its strata are exactly the table's
  // groups with exact populations, no stratum holds more rows than its
  // population, the row store totals the declared counts, and every
  // sampled row's grouping columns match its stratum's key (a torn row —
  // one whose columns were read mid-publication — would fail here).
  auto check_valid = [&](const StratifiedSample& sample,
                         const std::string& label) -> Status {
    if (sample.total_population() != n) {
      return Status::Internal(
          label + ": total population " +
          std::to_string(sample.total_population()) + ", expected " +
          std::to_string(n));
    }
    if (sample.strata().size() != exact_counts.size()) {
      return Status::Internal(
          label + ": " + std::to_string(sample.strata().size()) +
          " strata, expected " + std::to_string(exact_counts.size()));
    }
    uint64_t total_sampled = 0;
    for (const Stratum& stratum : sample.strata()) {
      auto it = exact_counts.find(stratum.key);
      if (it == exact_counts.end()) {
        return Status::Internal(label + ": stratum " +
                                GroupKeyToString(stratum.key) +
                                " names a group the table does not contain");
      }
      if (stratum.population != it->second) {
        return Status::Internal(
            label + ": stratum " + GroupKeyToString(stratum.key) +
            " population " + std::to_string(stratum.population) +
            ", exact count " + std::to_string(it->second));
      }
      if (stratum.sample_count > stratum.population) {
        return Status::Internal(label + ": stratum " +
                                GroupKeyToString(stratum.key) +
                                " oversampled: " +
                                std::to_string(stratum.sample_count) + " of " +
                                std::to_string(stratum.population));
      }
      total_sampled += stratum.sample_count;
    }
    if (sample.num_rows() != total_sampled) {
      return Status::Internal(
          label + ": row store holds " + std::to_string(sample.num_rows()) +
          " rows, strata declare " + std::to_string(total_sampled));
    }
    for (size_t r = 0; r < sample.num_rows(); ++r) {
      const Stratum& stratum = sample.strata()[sample.row_strata()[r]];
      GroupKey key;
      key.reserve(grouping.size());
      for (size_t c : grouping) key.push_back(sample.rows().GetValue(r, c));
      if (key != stratum.key) {
        return Status::Internal(label + ": sampled row " + std::to_string(r) +
                                " keys to " + GroupKeyToString(key) +
                                " but sits in stratum " +
                                GroupKeyToString(stratum.key));
      }
    }
    return Status::OK();
  };

  // (a) Single producer: 1, 4 and 8 shards — with a mid-stream merge —
  // must all publish the serial maintainer's sample bit for bit.
  const size_t merge_at = n / 2;
  auto run_sharded = [&](size_t shards) -> Result<StratifiedSample> {
    ShardedIngestOptions options;
    options.strategy = strategy;
    options.target_sample_size = sample_size;
    options.seed = seed;
    options.num_shards = shards;
    options.chunk_rows = 64;  // Small chunks exercise queue rollover.
    ShardedMaintainer sharded(table.schema(), grouping, options);
    std::vector<std::vector<Value>> batch;
    for (size_t r = 0; r < n; ++r) {
      batch.push_back(row_at(r));
      if (batch.size() == 7 || r + 1 == n || r + 1 == merge_at) {
        CONGRESS_RETURN_NOT_OK(sharded.InsertBatch(batch));
        batch.clear();
      }
      if (r + 1 == merge_at) {
        // Mid-stream merge: the final sample must not notice.
        auto mid = sharded.MaterializeForPublish();
        CONGRESS_RETURN_NOT_OK(mid.status());
      }
    }
    auto delta = sharded.MaterializeForPublish();
    CONGRESS_RETURN_NOT_OK(delta.status());
    if (delta->tuples_seen != n) {
      return Status::Internal(name + " x" + std::to_string(shards) +
                              ": merged " + std::to_string(delta->tuples_seen) +
                              " of " + std::to_string(n) + " tuples");
    }
    return std::move(delta->sample);
  };

  // Reference: the plain serial maintainer snapshotted at the same stream
  // positions (Snapshot() may advance maintainer RNG, so the mid-stream
  // merge has to line up exactly).
  auto serial = MakeMaintainer(table, grouping, strategy, sample_size, seed);
  CONGRESS_RETURN_NOT_OK(FeedRows(serial.get(), table, 0, merge_at));
  CONGRESS_RETURN_NOT_OK(
      MaterializeSnapshot(serial.get(), sample_size).status());
  CONGRESS_RETURN_NOT_OK(FeedRows(serial.get(), table, merge_at, n));
  auto reference = MaterializeSnapshot(serial.get(), sample_size);
  CONGRESS_RETURN_NOT_OK(reference.status());

  for (size_t shards : {size_t{1}, size_t{4}, size_t{8}}) {
    auto sample = run_sharded(shards);
    CONGRESS_RETURN_NOT_OK(sample.status());
    CONGRESS_RETURN_NOT_OK(CheckSamplesIdentical(
        *sample, *reference, name + " sharded x" + std::to_string(shards),
        "serial replay"));
  }

  // (b) Concurrent producers: every row lands exactly once, nothing
  // tears, and the published sample is the serial maintainer's for the
  // interleaving the merge reports — feeding `merged_rows` in order to a
  // fresh serial maintainer must reproduce it bit for bit.
  ShardedIngestOptions options;
  options.strategy = strategy;
  options.target_sample_size = sample_size;
  options.seed = seed;
  options.num_shards = 4;
  options.chunk_rows = 32;
  ShardedMaintainer sharded(table.schema(), grouping, options);
  constexpr size_t kProducers = 4;
  std::vector<std::thread> producers;
  std::vector<Status> producer_status(kProducers, Status::OK());
  producers.reserve(kProducers);
  for (size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      std::vector<std::vector<Value>> batch;
      for (size_t r = t; r < n; r += kProducers) {
        batch.push_back(row_at(r));
        if (batch.size() == 16) {
          producer_status[t] = sharded.InsertBatch(batch);
          batch.clear();
          if (!producer_status[t].ok()) return;
        }
      }
      if (!batch.empty()) producer_status[t] = sharded.InsertBatch(batch);
    });
  }
  for (std::thread& producer : producers) producer.join();
  for (const Status& st : producer_status) CONGRESS_RETURN_NOT_OK(st);
  auto concurrent = sharded.MaterializeForPublish();
  CONGRESS_RETURN_NOT_OK(concurrent.status());
  if (concurrent->merged_rows.size() != n) {
    return Status::Internal(
        name + " concurrent: merge returned " +
        std::to_string(concurrent->merged_rows.size()) + " of " +
        std::to_string(n) + " rows");
  }
  CONGRESS_RETURN_NOT_OK(check_valid(concurrent->sample, name + " concurrent"));
  auto replay = MakeMaintainer(table, grouping, strategy, sample_size, seed);
  for (const std::vector<Value>& row : concurrent->merged_rows) {
    CONGRESS_RETURN_NOT_OK(replay->Insert(row));
  }
  auto replayed = MaterializeSnapshot(replay.get(), sample_size);
  CONGRESS_RETURN_NOT_OK(replayed.status());
  CONGRESS_RETURN_NOT_OK(CheckSamplesIdentical(
      concurrent->sample, *replayed, name + " concurrent",
      "serial replay of merged rows"));

  // (c) The full engine publish path is shard-count invariant, and every
  // Refresh bumps the catalog epoch.
  SynopsisConfig config;
  config.strategy = strategy;
  config.sample_size = sample_size;
  config.incremental = true;
  config.seed = seed;
  for (size_t c : grouping) {
    config.grouping_columns.push_back(table.schema().field(c).name);
  }
  auto engine_run = [&](size_t shards)
      -> Result<std::shared_ptr<const AquaSynopsis>> {
    SynopsisConfig shard_config = config;
    shard_config.ingest_shards = shards;
    AquaEngine engine;
    CONGRESS_RETURN_NOT_OK(engine.RegisterTable("t", table, shard_config));
    uint64_t last_epoch = engine.epoch();
    for (size_t round = 0; round < 3; ++round) {
      for (size_t i = 0; i < 20; ++i) {
        CONGRESS_RETURN_NOT_OK(
            engine.Insert("t", row_at((round * 20 + i) % n)));
      }
      CONGRESS_RETURN_NOT_OK(engine.Refresh("t"));
      if (engine.epoch() <= last_epoch) {
        return Status::Internal(name + ": catalog epoch did not advance (" +
                                std::to_string(engine.epoch()) + " after " +
                                std::to_string(last_epoch) + ")");
      }
      last_epoch = engine.epoch();
    }
    auto synopsis = engine.GetSynopsis("t");
    CONGRESS_RETURN_NOT_OK(synopsis.status());
    return *synopsis;
  };
  auto one_shard = engine_run(1);
  CONGRESS_RETURN_NOT_OK(one_shard.status());
  auto eight_shards = engine_run(8);
  CONGRESS_RETURN_NOT_OK(eight_shards.status());
  return CheckSamplesIdentical((*one_shard)->sample(),
                               (*eight_shards)->sample(), name + " engine x1",
                               "engine x8");
}

Status CheckPlannerIdentity(const Table& table,
                            const std::vector<size_t>& grouping,
                            AllocationStrategy strategy,
                            const GroupByQuery& query, uint64_t seed) {
  const std::string name =
      std::string(AllocationStrategyToString(strategy)) + " planner";

  // Identity checks compare against the unplanned paths, so the query
  // runs budget-free.
  GroupByQuery plain = query;
  plain.budget = QueryBudget{};

  SynopsisConfig config;
  config.strategy = strategy;
  config.seed = seed;
  for (size_t c : grouping) {
    config.grouping_columns.push_back(table.schema().field(c).name);
  }
  SynopsisConfig frac = config;
  frac.sample_fraction = 0.2;
  AquaEngine engine;
  CONGRESS_RETURN_NOT_OK(engine.RegisterTable("t", table, frac));
  auto snapshot = engine.GetSnapshot("t");
  CONGRESS_RETURN_NOT_OK(snapshot.status());

  // (d) Exact scans of the snapshot, through its memo of exact roll-ups,
  // equal a plain ExecuteExact bit for bit: on the first answer, which
  // builds what it memoizes, and on the second, which reads it. The
  // generated measures are integer-valued, so every summation order gives
  // the same bits; the check runs again over a copy whose double measures
  // are scaled by 0.1, where the order of a fold shows.
  auto check_exact = [&](const AquaSnapshot& on, const std::string& label) {
    auto exact = ExecuteExact(*on.table, plain);
    CONGRESS_RETURN_NOT_OK(exact.status());
    for (const char* phase : {", cold", ", warm"}) {
      auto on_snapshot = ExecuteExactOnSnapshot(on, plain);
      CONGRESS_RETURN_NOT_OK(on_snapshot.status());
      CONGRESS_RETURN_NOT_OK(
          CheckExactIdentical(*exact, *on_snapshot, label + phase));
    }
    return Status::OK();
  };
  CONGRESS_RETURN_NOT_OK(check_exact(**snapshot, name + " exact on snapshot"));
  {
    auto scaled = std::make_shared<Table>(table);
    for (size_t c = 0; c < scaled->num_columns(); ++c) {
      if (scaled->schema().field(c).type != DataType::kDouble ||
          std::ranges::find(grouping, c) != grouping.end()) {
        continue;
      }
      for (double& v : scaled->MutableDoubleColumn(c)) v *= 0.1;
    }
    auto census = GroupIndex::Build(*scaled, grouping);
    CONGRESS_RETURN_NOT_OK(census.status());
    AquaSnapshot on_scaled;
    on_scaled.name = "scaled";
    on_scaled.table = scaled;
    on_scaled.exact_rollups = std::make_shared<const ExactRollups>(
        on_scaled.table,
        std::make_shared<const GroupIndex>(std::move(census).value()),
        std::make_shared<const ZoneMap>(ZoneMap::Build(*scaled)));
    CONGRESS_RETURN_NOT_OK(
        check_exact(on_scaled, name + " exact on scaled snapshot"));
  }

  // MIN/MAX queries have no sampling plan to compare.
  for (const AggregateSpec& spec : plain.aggregates) {
    if (spec.kind == AggregateKind::kMin || spec.kind == AggregateKind::kMax) {
      return Status::OK();
    }
  }

  // (a) Combined plan over a 100% sample: the sampled tail is exact
  // (every scale factor 1) and the outlier part is exact by construction,
  // so the stitched answer must reproduce ExecuteExact.
  {
    SynopsisConfig full = config;
    full.sample_fraction = 1.0;
    AquaEngine full_engine;
    CONGRESS_RETURN_NOT_OK(full_engine.RegisterTable("t", table, full));
    auto full_snapshot = full_engine.GetSnapshot("t");
    CONGRESS_RETURN_NOT_OK(full_snapshot.status());
    const std::vector<Stratum>& strata =
        (*full_snapshot)->synopsis->sample().strata();
    if (strata.size() >= 2) {
      std::vector<uint32_t> outliers = {0};
      if (strata.size() > 2) outliers.push_back(1);
      auto combined =
          planner::ExecuteCombinedPlan(**full_snapshot, plain, outliers);
      CONGRESS_RETURN_NOT_OK(combined.status());
      auto exact = ExecuteExact(table, plain);
      CONGRESS_RETURN_NOT_OK(exact.status());
      CONGRESS_RETURN_NOT_OK(CheckResultsEqual(*exact,
                                               combined->ToQueryResult(), 1e-9,
                                               "exact",
                                               name + " combined@100%"));
    }
  }

  // (b) + (c) on the fractional sample: budget-free planner routing is
  // bit-identical to the synopsis's own answer, and the primary plan
  // agrees with the Section 5.2 rewriter within float tolerance.
  {
    planner::Planner planner;
    auto planned = planner.Run(**snapshot, plain);
    CONGRESS_RETURN_NOT_OK(planned.status());
    if (planned->report.chosen.kind != planner::PlanKind::kPrimarySynopsis) {
      return Status::Internal(name + ": budget-free plan chose " +
                              planner::PlanKindToString(
                                  planned->report.chosen.kind) +
                              " instead of the primary synopsis");
    }
    auto direct = (*snapshot)->synopsis->Answer(plain);
    CONGRESS_RETURN_NOT_OK(direct.status());
    CONGRESS_RETURN_NOT_OK(CompareApproximateBitwise(
        planned->result, *direct, name + " no-budget run"));

    if (plain.having.empty()) {
      const AquaSynopsis& synopsis = *(*snapshot)->synopsis;
      Rewriter rewriter(synopsis.sample());
      auto via = rewriter.Answer(plain, RewriteStrategy::kNestedIntegrated,
                                 synopsis.config().execution);
      CONGRESS_RETURN_NOT_OK(via.status());
      CONGRESS_RETURN_NOT_OK(CheckResultsEqual(
          *via, planned->result.ToQueryResult(), 1e-9,
          name + " rewriter", name + " primary plan"));
    }
  }
  return Status::OK();
}

Status CheckNetChaos(const Table& table, const std::vector<size_t>& grouping,
                     AllocationStrategy strategy, uint64_t sample_size,
                     uint64_t seed) {
  const Schema& schema = table.schema();
  SynopsisConfig config;
  config.strategy = strategy;
  config.sample_size = sample_size;
  config.incremental = true;
  config.seed = seed;
  std::string sql = "SELECT ";
  for (size_t c : grouping) {
    sql += schema.field(c).name + ", ";
    config.grouping_columns.push_back(schema.field(c).name);
  }
  sql += "COUNT(*) FROM t GROUP BY " + config.grouping_columns[0];
  for (size_t g = 1; g < config.grouping_columns.size(); ++g) {
    sql += ", " + config.grouping_columns[g];
  }

  AquaEngine engine;
  CONGRESS_RETURN_NOT_OK(engine.RegisterTable("t", table, config));
  serve::AquaServer server(&engine, serve::ServeOptions{});
  CONGRESS_RETURN_NOT_OK(server.Start());
  net::FrontEndOptions fe_options;
  fe_options.poll_interval = std::chrono::milliseconds(10);
  fe_options.drain_timeout = std::chrono::milliseconds(3000);
  net::TcpFrontEnd front_end(&server, fe_options);
  CONGRESS_RETURN_NOT_OK(front_end.Start());

  // The chaos weather: every socket syscall on both sides may misbehave,
  // deterministically from (site seed, probability).
  using resilience::FailpointSpec;
  auto prob = [&](double p, uint64_t salt) {
    FailpointSpec spec;
    spec.mode = FailpointSpec::Mode::kProbability;
    spec.probability = p;
    spec.seed = seed * 1000003 + salt;
    return spec;
  };
  std::list<resilience::ScopedFailpoint> weather;
  weather.emplace_back("net/read_short", prob(0.05, 1));
  weather.emplace_back("net/read_eagain", prob(0.05, 2));
  weather.emplace_back("net/write_short", prob(0.05, 3));
  weather.emplace_back("net/read_reset", prob(0.02, 4));
  weather.emplace_back("net/write_reset", prob(0.02, 5));
  weather.emplace_back("net/accept", prob(0.02, 6));
  weather.emplace_back("net/connect", prob(0.02, 7));

  constexpr size_t kClients = 3;
  constexpr size_t kRequestsPerClient = 20;
  struct ClientOutcome {
    Status bad = Status::OK();   ///< First disallowed outcome, if any.
    size_t successes = 0;
    size_t insert_tokens = 0;
    size_t inserts_confirmed = 0;
  };
  std::vector<ClientOutcome> outcomes(kClients);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientOutcome& out = outcomes[c];
      net::ClientOptions options;
      options.connect_timeout = std::chrono::milliseconds(500);
      options.read_timeout = std::chrono::milliseconds(1000);
      options.write_timeout = std::chrono::milliseconds(1000);
      options.max_attempts = 5;
      options.backoff.initial_ms = 1;
      options.backoff.max_ms = 10;
      options.seed = seed + c;
      net::AquaClient client("127.0.0.1", front_end.port(), options);
      for (size_t i = 0; i < kRequestsPerClient; ++i) {
        const bool is_insert = i % 4 == 3;
        auto issue = [&]() -> Result<serve::Response> {
          if (is_insert) {
            const std::string token =
                "chaos-" + std::to_string(c) + "-" + std::to_string(i);
            out.insert_tokens++;
            std::vector<Value> row;
            for (size_t col = 0; col < table.num_columns(); ++col) {
              row.push_back(
                  table.GetValue((c * 31 + i) % table.num_rows(), col));
            }
            return client.Insert("t", {row}, token);
          }
          serve::Request request;
          request.sql = sql;
          request.mode = i % 4 == 0 ? serve::QueryMode::kApproximate
                         : i % 4 == 1 ? serve::QueryMode::kResilient
                                      : serve::QueryMode::kExact;
          return client.Call(request);
        };
        Result<serve::Response> response = issue();
        const Status status =
            response.ok() ? response->status : response.status();
        if (status.ok()) {
          out.successes++;
          if (is_insert) out.inserts_confirmed++;
        } else if (status.code() != StatusCode::kUnavailable &&
                   status.code() != StatusCode::kResourceExhausted &&
                   status.code() != StatusCode::kIOError &&
                   status.code() != StatusCode::kDeadlineExceeded) {
          if (out.bad.ok()) {
            out.bad = Status::Internal(
                "request " + std::to_string(i) +
                " resolved to a disallowed failure: " + status.ToString());
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  weather.clear();  // Disarm before the drain check.

  size_t successes = 0;
  size_t insert_tokens = 0;
  size_t inserts_confirmed = 0;
  for (const ClientOutcome& out : outcomes) {
    CONGRESS_RETURN_NOT_OK(out.bad);
    successes += out.successes;
    insert_tokens += out.insert_tokens;
    inserts_confirmed += out.inserts_confirmed;
  }
  const size_t total = kClients * kRequestsPerClient;
  if (successes * 2 <= total) {
    return Status::Internal(
        "liveness lost: only " + std::to_string(successes) + "/" +
        std::to_string(total) + " requests succeeded under chaos");
  }

  const auto stop_start = std::chrono::steady_clock::now();
  front_end.Stop();
  const auto stop_elapsed = std::chrono::steady_clock::now() - stop_start;
  if (stop_elapsed > fe_options.drain_timeout +
                         std::chrono::milliseconds(2000)) {
    return Status::Internal("Stop() exceeded its drain bound");
  }
  if (front_end.stats().connections_active != 0) {
    return Status::Internal(
        "front end leaked " +
        std::to_string(front_end.stats().connections_active) +
        " connections past Stop()");
  }
  if (server.stats().sessions_active != 0) {
    return Status::Internal(
        "server leaked " + std::to_string(server.stats().sessions_active) +
        " sessions past Stop()");
  }

  // Insert idempotency: at most one execution per token, and every
  // client-confirmed insert actually executed.
  const uint64_t writes = server.stats().writes;
  if (writes > insert_tokens) {
    return Status::Internal(
        "doubled writes: " + std::to_string(writes) + " executions for " +
        std::to_string(insert_tokens) + " distinct idempotency tokens");
  }
  if (writes < inserts_confirmed) {
    return Status::Internal(
        "lost writes: " + std::to_string(inserts_confirmed) +
        " inserts confirmed to clients but only " + std::to_string(writes) +
        " executed");
  }
  server.Stop();
  return Status::OK();
}

}  // namespace congress::testing
