#include "planner/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/degradation.h"
#include "engine/executor.h"
#include "engine/predicate.h"
#include "obs/metrics.h"
#include "resilience/failpoint.h"
#include "storage/group_index.h"

namespace congress::planner {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cap on the bound widening of a fallback reached by failure.
constexpr double kMaxFailoverWidening = 8.0;

/// A plan's rung name (DegradationLevel's vocabulary) for failure causes,
/// and its failpoint site; plans the failure walk never enters have none.
struct Rung {
  const char* name;
  const char* failpoint;
};

Rung RungOf(PlanKind kind) {
  switch (kind) {
    case PlanKind::kPrimarySynopsis:
      return {"primary", "aqua/primary_answer"};
    case PlanKind::kFallbackBasic:
      return {"basic_congress", "aqua/fallback_basic"};
    case PlanKind::kFallbackHouse:
      return {"house", "aqua/fallback_house"};
    case PlanKind::kExact:
      return {"exact", "aqua/exact_rebuild"};
    default:
      return {PlanKindToString(kind), nullptr};
  }
}

uint32_t Bit(PlanKind kind) { return 1u << static_cast<uint32_t>(kind); }

/// Internal aggregate expansion for combined plans: every output
/// aggregate maps to slots in an internal SUM/COUNT-only list so the
/// exact part and the sampled tail add per slot, and AVG recombines as a
/// ratio after stitching.
struct AggregatePlan {
  GroupByQuery inner;                 // No HAVING, expanded aggregates.
  std::vector<size_t> value_slot;     // Per output agg: SUM slot (or count).
  size_t count_slot = 0;              // Shared COUNT(*) slot.
};

/// Keeps the rows of the indexed base relation whose stratum (their id in
/// `index`) is flagged in `keep`. Unlike the SQL predicates it reads row
/// positions, not row contents, so it is only meaningful against the
/// table `index` was built over.
class StrataPredicate final : public Predicate {
 public:
  StrataPredicate(std::shared_ptr<const GroupIndex> index,
                  std::vector<uint8_t> keep)
      : index_(std::move(index)), keep_(std::move(keep)) {}

  bool Matches(const Table&, size_t row) const override {
    return keep_[index_->row_ids()[row]] != 0;
  }

  void MatchBatch(const Table&, uint32_t begin, uint32_t end,
                  const uint32_t* sel_in,
                  SelectionVector* sel_out) const override {
    const uint32_t* ids = index_->row_ids().data();
    kernels::FilterGeneric(begin, end, sel_in, sel_out, [&](uint32_t row) {
      return keep_[ids[row]] != 0;
    });
  }

  std::string ToString(const Schema*) const override {
    std::string out = "stratum IN (";
    bool first = true;
    for (size_t g = 0; g < keep_.size(); ++g) {
      if (keep_[g] == 0) continue;
      out += (first ? "" : ", ") + std::to_string(g);
      first = false;
    }
    return out + ")";
  }

 private:
  std::shared_ptr<const GroupIndex> index_;
  std::vector<uint8_t> keep_;
};

AggregatePlan ExpandAggregates(const GroupByQuery& query) {
  AggregatePlan plan;
  plan.inner.group_columns = query.group_columns;
  plan.inner.predicate = query.predicate;
  size_t count_slot = SIZE_MAX;
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateKind::kCount) {
      if (count_slot == SIZE_MAX) {
        count_slot = plan.inner.aggregates.size();
        plan.inner.aggregates.emplace_back(AggregateKind::kCount, 0);
      }
      plan.value_slot.push_back(count_slot);
    } else {
      AggregateSpec sum = spec;
      sum.kind = AggregateKind::kSum;
      plan.value_slot.push_back(plan.inner.aggregates.size());
      plan.inner.aggregates.push_back(std::move(sum));
    }
  }
  if (count_slot == SIZE_MAX) {
    count_slot = plan.inner.aggregates.size();
    plan.inner.aggregates.emplace_back(AggregateKind::kCount, 0);
  }
  plan.count_slot = count_slot;
  return plan;
}

/// Top-k strata by base population (ties broken by stratum index), the
/// outliers a combined plan answers exactly.
std::vector<uint32_t> TopStrataByPopulation(
    const std::vector<Stratum>& strata, size_t k) {
  std::vector<uint32_t> order(strata.size());
  for (uint32_t s = 0; s < order.size(); ++s) order[s] = s;
  auto heavier = [&](uint32_t a, uint32_t b) {
    if (strata[a].population != strata[b].population) {
      return strata[a].population > strata[b].population;
    }
    return a < b;
  };
  if (order.size() > k) {
    // Selection, not a full sort: k is small and this runs on every
    // budgeted plan.
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(k),
                     order.end(),
                     heavier);
    order.resize(k);
  }
  std::sort(order.begin(), order.end());
  return order;
}

double WorstRelativeBound(const ApproximateResult& result, double floor) {
  double worst = 0.0;
  for (const ApproximateGroupRow& row : result.rows()) {
    // A non-exact group the estimator could not put an interval around
    // (fewer than 2 sampled tuples) is a statement of ignorance, not a
    // zero-width promise: treat it as an unbounded relative error so
    // verification escalates.
    if (row.provenance != GroupProvenance::kExact && row.support < 2) {
      return kInf;
    }
    for (size_t a = 0; a < row.estimates.size(); ++a) {
      const double rel =
          row.bounds[a] / std::max(std::fabs(row.estimates[a]), floor);
      worst = std::max(worst, rel);
    }
  }
  return worst;
}

/// Converts a summary (histogram/wavelet) point answer into the
/// approximate interface with heuristic residual-scaled bounds. These are
/// model residuals, not probabilistic intervals — which is exactly why
/// the scorer never offers summaries against an error promise.
ApproximateResult SummaryAsApproximate(const QueryResult& answer,
                                       double residual) {
  const std::vector<GroupResult>& rows = answer.rows();
  const size_t k = rows.empty() ? 0 : rows[0].aggregates.size();
  ApproximateResult out(rows.empty() ? 0 : rows[0].key.size(), k);
  out.Reserve(rows.size());
  for (const GroupResult& row : rows) {
    std::span<double> numbers = out.Add(row.key, 0, GroupProvenance::kSampled);
    for (size_t a = 0; a < k; ++a) {
      numbers[a] = row.aggregates[a];
      numbers[2 * k + a] = residual * std::fabs(row.aggregates[a]);
    }
  }
  return out;
}

const CandidateScore* FindCandidate(const std::vector<CandidateScore>& cs,
                                    PlanKind kind) {
  for (const CandidateScore& c : cs) {
    if (c.kind == kind) return &c;
  }
  return nullptr;
}

/// The plan a failed attempt moves to: the first member of the failure
/// walk — primary, the fallbacks by predicted error (a stable order, so
/// ties and unscored fallbacks keep PlanKind order), exact — not yet
/// attempted. Nullopt when the walk is spent.
std::optional<PlanKind> NextAfterFailure(const std::vector<CandidateScore>& cs,
                                         uint32_t attempted) {
  PlanKind walk[] = {PlanKind::kPrimarySynopsis, PlanKind::kFallbackBasic,
                     PlanKind::kFallbackHouse, PlanKind::kExact};
  auto predicted = [&cs](PlanKind kind) {
    const CandidateScore* c = FindCandidate(cs, kind);
    return c != nullptr ? c->predicted_relative_error : kInf;
  };
  if (predicted(walk[2]) < predicted(walk[1])) std::swap(walk[1], walk[2]);
  for (PlanKind kind : walk) {
    if ((attempted & Bit(kind)) == 0) return kind;
  }
  return std::nullopt;
}

/// Bound widening for a fallback reached by failure: the square root of
/// its predicted-variance ratio to the primary, clamped to [1, 8]; 1 for
/// any other plan or when either variance is unknown.
double FailoverWidening(const std::vector<CandidateScore>& cs, PlanKind kind) {
  if (kind != PlanKind::kFallbackBasic && kind != PlanKind::kFallbackHouse) {
    return 1.0;
  }
  const CandidateScore* primary = FindCandidate(cs, PlanKind::kPrimarySynopsis);
  const CandidateScore* fallback = FindCandidate(cs, kind);
  if (primary == nullptr || fallback == nullptr ||
      primary->mean_variance <= 0.0 || fallback->mean_variance <= 0.0) {
    return 1.0;
  }
  return std::clamp(std::sqrt(fallback->mean_variance / primary->mean_variance),
                    1.0, kMaxFailoverWidening);
}

}  // namespace

const char* PlanKindToString(PlanKind kind) {
  switch (kind) {
    case PlanKind::kPrimarySynopsis:
      return "primary-synopsis";
    case PlanKind::kFallbackBasic:
      return "fallback-basic-congress";
    case PlanKind::kFallbackHouse:
      return "fallback-house";
    case PlanKind::kHistogram:
      return "histogram";
    case PlanKind::kWavelet:
      return "wavelet";
    case PlanKind::kCombined:
      return "combined-outlier-exact";
    case PlanKind::kExact:
      return "exact";
  }
  return "unknown";
}

std::string PlanReport::ToString() const {
  std::ostringstream oss;
  oss << "plan: " << PlanKindToString(chosen.kind);
  if (!chosen.outlier_strata.empty()) {
    oss << " (exact strata:";
    for (uint32_t s : chosen.outlier_strata) oss << " " << s;
    oss << ")";
  }
  oss << "\n";
  if (budget.active()) {
    oss << "budget: " << budget.ToString() << "\n";
  } else {
    oss << "budget: none\n";
  }
  oss << "predicted relative error: " << predicted_relative_error << "\n";
  if (realized_relative_error >= 0.0) {
    oss << "realized relative error: " << realized_relative_error;
    if (budget.has_error_budget()) {
      oss << (realized_relative_error <= budget.relative_error
                  ? " (promise met)"
                  : " (promise broken)");
    }
    oss << "\n";
  }
  if (escalations > 0) oss << "escalations: " << escalations << "\n";
  if (!failures.empty()) {
    oss << "failed over (bounds x" << bound_widening << "): " << failures
        << "\n";
  }
  oss << "candidates:\n";
  for (const CandidateScore& c : candidates) {
    oss << "  " << PlanKindToString(c.kind) << ": ";
    if (c.eligible) {
      oss << "rel_err<=" << c.predicted_relative_error << " cost~"
          << c.predicted_cost_ms << "ms";
      if (!c.detail.empty()) oss << " (" << c.detail << ")";
    } else {
      oss << "ineligible: " << c.detail;
    }
    oss << "\n";
  }
  return oss.str();
}

Result<ApproximateResult> ExecuteCombinedPlan(
    const AquaSnapshot& snapshot, const GroupByQuery& query,
    const std::vector<uint32_t>& outlier_strata, double confidence) {
  if (snapshot.synopsis == nullptr) {
    return Status::InvalidArgument("snapshot has no synopsis");
  }
  if (snapshot.exact_rollups == nullptr) {
    return Status::FailedPrecondition(
        "combined plan needs the retained base relation");
  }
  const AquaSynopsis& synopsis = *snapshot.synopsis;
  const StratifiedSample& sample = synopsis.sample();
  const std::vector<Stratum>& strata = sample.strata();
  for (uint32_t s : outlier_strata) {
    if (s >= strata.size()) {
      return Status::InvalidArgument("outlier stratum out of range");
    }
  }
  const ExecutorOptions& execution = synopsis.config().execution;
  AggregatePlan plan = ExpandAggregates(query);

  // Exact part: one exact scan of the base relation, restricted to the
  // outlier strata by a membership test on the snapshot's row→stratum
  // index (built once at publish). The scan reads its group ids and key
  // order from the snapshot's exact roll-ups, whose zones let a range of
  // the query skip the batches it rules out.
  const std::shared_ptr<const GroupIndex>& index =
      snapshot.exact_rollups->index();
  std::vector<uint8_t> keep(index->num_groups(), 0);
  for (uint32_t s : outlier_strata) {
    auto id = index->IdOf(strata[s].key);
    if (id.ok()) keep[*id] = 1;
  }
  GroupByQuery exact_query = plan.inner;
  PredicatePtr in_outliers =
      std::make_shared<const StrataPredicate>(index, std::move(keep));
  exact_query.predicate =
      plan.inner.predicate == nullptr
          ? in_outliers
          : MakeAndPredicate({in_outliers, plan.inner.predicate});
  auto exact = ExecuteExactOnSnapshot(snapshot, exact_query);
  if (!exact.ok()) return exact.status();
  const QueryResult& exact_part = *exact;
  const size_t slots = plan.inner.aggregates.size();

  // Sampled tail: the outlier strata are excluded from the estimate.
  EstimatorOptions tail_options = synopsis.config().estimator;
  if (confidence > 0.0) tail_options.confidence = confidence;
  tail_options.excluded_strata = outlier_strata;
  auto tail = EstimateGroupBy(sample, synopsis.moments(), plan.inner,
                              tail_options, execution);
  if (!tail.ok()) return tail.status();

  // Stitch per output group. Each group pairs its exact row with its
  // sampled row. When both answers are searchable (strictly key-ordered,
  // NaN-free) one merge-join pairs them in key order. Otherwise a NaN key
  // may have left either answer only partly ordered, so rows are paired
  // by key lookup and the stitched answer is sorted afterwards. A group
  // in both answers keeps the exact part's key; a NaN key equals no key
  // and is never paired. Only the tail carries uncertainty, so the
  // combined bound of an internal slot is the tail's; AVG propagates the
  // ratio bound (b_S + |avg| b_C) / C.
  const std::vector<GroupResult>& exact_rows = exact_part.rows();
  const size_t num_tail = tail->num_groups();
  constexpr size_t kNoTail = std::numeric_limits<size_t>::max();
  // (exact row or nullptr, tail row index or kNoTail) per output group.
  std::vector<std::pair<const GroupResult*, size_t>> parts;
  parts.reserve(exact_rows.size() + num_tail);
  if (exact_part.searchable() && tail->searchable()) {
    size_t i = 0;
    size_t j = 0;
    auto tail_key = [&tail](size_t j) { return tail->row(j).key; };
    while (i < exact_rows.size() || j < num_tail) {
      if (j == num_tail ||
          (i < exact_rows.size() && KeyLess(exact_rows[i].key, tail_key(j)))) {
        parts.emplace_back(&exact_rows[i++], kNoTail);
      } else if (i == exact_rows.size() ||
                 KeyLess(tail_key(j), exact_rows[i].key)) {
        parts.emplace_back(nullptr, j++);
      } else {
        parts.emplace_back(&exact_rows[i++], j++);
      }
    }
  } else {
    std::unordered_map<GroupKey, size_t, GroupKeyHash> part_of;
    for (const GroupResult& row : exact_rows) {
      part_of.emplace(row.key, parts.size());
      parts.emplace_back(&row, kNoTail);
    }
    for (size_t j = 0; j < num_tail; ++j) {
      const std::span<const Value> key = tail->row(j).key;
      auto it = part_of.find(GroupKey(key.begin(), key.end()));
      if (it != part_of.end()) {
        parts[it->second].second = j;
      } else {
        parts.emplace_back(nullptr, j);
      }
    }
  }
  const size_t num_aggs = query.aggregates.size();
  ApproximateResult result(tail->key_width(), num_aggs);
  result.Reserve(parts.size());
  std::vector<double> value(slots), bound(slots), se(slots);
  for (const auto& [exact, j] : parts) {
    const std::optional<ApproximateGroupRow> sampled =
        j == kNoTail ? std::nullopt : std::optional(tail->row(j));
    for (size_t k = 0; k < slots; ++k) {
      value[k] = (exact != nullptr ? exact->aggregates[k] : 0.0) +
                 (sampled ? sampled->estimates[k] : 0.0);
      bound[k] = sampled ? sampled->bounds[k] : 0.0;
      se[k] = sampled ? sampled->std_errors[k] : 0.0;
    }
    const double exact_count =
        exact != nullptr ? exact->aggregates[plan.count_slot] : 0.0;
    const uint64_t support = (sampled ? sampled->support : 0) +
                             static_cast<uint64_t>(std::llround(exact_count));
    GroupProvenance provenance = GroupProvenance::kSampled;
    if (exact != nullptr && sampled) {
      provenance = GroupProvenance::kCombined;
    } else if (exact != nullptr) {
      provenance = GroupProvenance::kExact;
    }
    std::span<double> numbers =
        exact != nullptr ? result.Add(exact->key, support, provenance)
                         : result.Add(sampled->key, support, provenance);
    double* estimates = numbers.data();
    double* std_errors = estimates + num_aggs;
    double* bounds = std_errors + num_aggs;
    for (size_t a = 0; a < num_aggs; ++a) {
      const size_t slot = plan.value_slot[a];
      if (query.aggregates[a].kind == AggregateKind::kAvg) {
        const double s = value[slot];
        const double c = value[plan.count_slot];
        const double avg = c > 0.0 ? s / c : 0.0;
        estimates[a] = avg;
        if (c > 0.0) {
          bounds[a] =
              (bound[slot] + std::fabs(avg) * bound[plan.count_slot]) / c;
          std_errors[a] = (se[slot] + std::fabs(avg) * se[plan.count_slot]) / c;
        }
      } else {
        estimates[a] = value[slot];
        std_errors[a] = se[slot];
        bounds[a] = bound[slot];
      }
    }
  }
  result.FilterHaving(query.having);
  result.SortByKey();  // No-op after the merge-join.
  return result;
}

Planner::Planner(PlannerOptions options) : options_(options) {}

Result<PlanReport> Planner::Plan(const AquaSnapshot& snapshot,
                                 const GroupByQuery& query) const {
  if (snapshot.synopsis == nullptr) {
    return Status::InvalidArgument("snapshot has no synopsis");
  }
  const QueryBudget& budget = query.budget;
  if (budget.has_error_budget() &&
      (budget.confidence <= 0.0 || budget.confidence >= 1.0)) {
    return Status::InvalidArgument(
        "error budget requires a confidence level in (0, 1)");
  }
  if (budget.has_error_budget() && budget.relative_error >= 1.0) {
    return Status::InvalidArgument(
        "error budget must be a relative half-width in (0, 1)");
  }
  const AquaSynopsis& primary = *snapshot.synopsis;
  const double confidence = budget.has_error_budget()
                                ? budget.confidence
                                : primary.config().estimator.confidence;

  PlanReport report;
  report.budget = budget;

  auto score_sample = [&](PlanKind kind, const AquaSynopsis* synopsis,
                          const Status& build_status) {
    CandidateScore c;
    c.kind = kind;
    if (synopsis == nullptr) {
      c.detail = build_status.ok() ? "not built" : build_status.ToString();
      report.candidates.push_back(std::move(c));
      return;
    }
    auto prediction = PredictSampleError(*synopsis, query, confidence);
    if (!prediction.ok()) {
      c.detail = prediction.status().ToString();
      report.candidates.push_back(std::move(c));
      return;
    }
    c.eligible = true;
    c.predicted_relative_error = prediction->max_relative_bound;
    c.mean_variance = prediction->mean_variance;
    c.predicted_cost_ms = static_cast<double>(synopsis->sample().num_rows()) *
                          options_.ms_per_sample_row;
    c.detail = prediction->exact_model ? "moment model"
                                       : "moment model (approximate)";
    report.candidates.push_back(std::move(c));
  };
  score_sample(PlanKind::kPrimarySynopsis, &primary, Status::OK());
  score_sample(PlanKind::kFallbackBasic, snapshot.fallback_basic.get(),
               snapshot.fallback_basic_status);
  score_sample(PlanKind::kFallbackHouse, snapshot.fallback_house.get(),
               snapshot.fallback_house_status);

  auto score_summary = [&](PlanKind kind, bool present, const Status& status,
                           double residual, size_t cells) {
    CandidateScore c;
    c.kind = kind;
    if (!present) {
      c.detail = status.ok() ? "not built (SynopsisConfig::fleet_* off)"
                             : status.ToString();
      report.candidates.push_back(std::move(c));
      return;
    }
    Status eligible =
        FleetEligibility(query, primary.grouping_column_indices());
    if (!eligible.ok()) {
      c.detail = eligible.ToString();
      report.candidates.push_back(std::move(c));
      return;
    }
    if (budget.has_error_budget()) {
      c.detail =
          "residual model carries no probabilistic guarantee for an error "
          "promise";
      report.candidates.push_back(std::move(c));
      return;
    }
    c.eligible = true;
    c.predicted_relative_error = residual;
    c.predicted_cost_ms =
        static_cast<double>(cells) * options_.ms_per_summary_cell;
    c.detail = "publish-time residual vs exact";
    report.candidates.push_back(std::move(c));
  };
  score_summary(PlanKind::kHistogram, snapshot.histogram != nullptr,
                snapshot.histogram_status, snapshot.histogram_residual,
                snapshot.histogram != nullptr
                    ? snapshot.histogram->StorageCells()
                    : 0);
  score_summary(PlanKind::kWavelet, snapshot.wavelet != nullptr,
                snapshot.wavelet_status, snapshot.wavelet_residual,
                snapshot.wavelet != nullptr ? snapshot.wavelet->StorageCells()
                                            : 0);

  // Combined: the top-k outlier strata by base population go exact, the
  // tail stays sampled.
  std::vector<uint32_t> outliers;
  {
    CandidateScore c;
    c.kind = PlanKind::kCombined;
    const std::vector<Stratum>& strata = primary.sample().strata();
    if (snapshot.exact_rollups == nullptr) {
      c.detail = "base relation unavailable (restored snapshot)";
    } else if (strata.size() < 2) {
      c.detail = "fewer than two strata; nothing to split";
    } else {
      outliers = TopStrataByPopulation(
          strata, std::min(options_.max_outlier_strata, strata.size() - 1));
      auto prediction =
          PredictSampleError(primary, query, confidence, outliers);
      if (!prediction.ok()) {
        c.detail = prediction.status().ToString();
      } else {
        uint64_t outlier_population = 0;
        for (uint32_t s : outliers) outlier_population += strata[s].population;
        c.eligible = true;
        c.predicted_relative_error = prediction->max_relative_bound;
        c.predicted_cost_ms =
            static_cast<double>(primary.sample().num_rows()) *
                options_.ms_per_sample_row +
            static_cast<double>(outlier_population) * options_.ms_per_base_row;
        c.detail = "top-" + std::to_string(outliers.size()) +
                   " strata exact, sampled tail";
      }
    }
    report.candidates.push_back(std::move(c));
  }

  {
    CandidateScore c;
    c.kind = PlanKind::kExact;
    if (snapshot.exact_rollups == nullptr) {
      c.detail = "base relation unavailable (restored snapshot)";
    } else {
      bool min_max = false;
      for (const AggregateSpec& spec : query.aggregates) {
        min_max = min_max || spec.kind == AggregateKind::kMin ||
                  spec.kind == AggregateKind::kMax;
      }
      c.eligible = true;
      c.predicted_relative_error = 0.0;
      c.predicted_cost_ms =
          static_cast<double>(snapshot.table->num_rows()) *
          options_.ms_per_base_row;
      c.detail = min_max ? "only plan supporting MIN/MAX" : "";
    }
    report.candidates.push_back(std::move(c));
  }

  // Choice. No budget: the primary synopsis, bit-identical to Answer().
  // Error budget: the cheapest plan predicted to keep the promise (exact
  // as the always-sufficient endpoint). Time budget: the most accurate
  // plan predicted to finish inside the deadline.
  auto choose = [&]() -> PlanChoice {
    PlanChoice choice;
    if (!budget.active()) {
      choice.kind = PlanKind::kPrimarySynopsis;
      return choice;
    }
    const CandidateScore* best = nullptr;
    if (budget.has_error_budget()) {
      for (const CandidateScore& c : report.candidates) {
        if (!c.eligible || c.predicted_relative_error > budget.relative_error) {
          continue;
        }
        if (best == nullptr || c.predicted_cost_ms < best->predicted_cost_ms) {
          best = &c;
        }
      }
      if (best == nullptr) {
        best = FindCandidate(report.candidates, PlanKind::kExact);
        if (best != nullptr && !best->eligible) best = nullptr;
      }
      if (best == nullptr) {
        // No plan can promise the budget and exact is unavailable: serve
        // the most accurate prediction and let Run() report the gap.
        for (const CandidateScore& c : report.candidates) {
          if (!c.eligible) continue;
          if (best == nullptr ||
              c.predicted_relative_error < best->predicted_relative_error) {
            best = &c;
          }
        }
      }
    } else {
      for (const CandidateScore& c : report.candidates) {
        if (!c.eligible || c.predicted_cost_ms > budget.time_budget_ms) {
          continue;
        }
        if (best == nullptr ||
            c.predicted_relative_error < best->predicted_relative_error ||
            (c.predicted_relative_error == best->predicted_relative_error &&
             c.predicted_cost_ms < best->predicted_cost_ms)) {
          best = &c;
        }
      }
      if (best == nullptr) {
        // Nothing fits the deadline; take the cheapest eligible plan.
        for (const CandidateScore& c : report.candidates) {
          if (!c.eligible) continue;
          if (best == nullptr ||
              c.predicted_cost_ms < best->predicted_cost_ms) {
            best = &c;
          }
        }
      }
    }
    if (best != nullptr) {
      choice.kind = best->kind;
      if (best->kind == PlanKind::kCombined) choice.outlier_strata = outliers;
    }
    return choice;
  };
  report.chosen = choose();
  const CandidateScore* chosen =
      FindCandidate(report.candidates, report.chosen.kind);
  if (chosen != nullptr && chosen->eligible) {
    report.predicted_relative_error = chosen->predicted_relative_error;
  }
  return report;
}

Result<ApproximateResult> Planner::Execute(const AquaSnapshot& snapshot,
                                           const GroupByQuery& query,
                                           const PlanChoice& choice) const {
  if (const char* site = RungOf(choice.kind).failpoint;
      site != nullptr && CONGRESS_FAILPOINT_HIT(site)) {
    return resilience::FailpointError(site);
  }
  // A fallback that failed to build reports why, as its rung's cause.
  auto missing = [](const Status& build_status, const char* what) {
    return build_status.ok()
               ? Status::FailedPrecondition(std::string(what) + " not built")
               : build_status;
  };
  const double confidence =
      query.budget.has_error_budget() ? query.budget.confidence : 0.0;
  auto sample_answer = [&](const AquaSynopsis& synopsis)
      -> Result<ApproximateResult> {
    if (confidence <= 0.0) return synopsis.Answer(query);
    EstimatorOptions opts = synopsis.config().estimator;
    opts.confidence = confidence;
    return EstimateGroupBy(synopsis.sample(), synopsis.moments(), query, opts,
                           synopsis.config().execution);
  };
  switch (choice.kind) {
    case PlanKind::kPrimarySynopsis:
      return sample_answer(*snapshot.synopsis);
    case PlanKind::kFallbackBasic:
      if (snapshot.fallback_basic == nullptr) {
        return missing(snapshot.fallback_basic_status, "fallback-basic");
      }
      return sample_answer(*snapshot.fallback_basic);
    case PlanKind::kFallbackHouse:
      if (snapshot.fallback_house == nullptr) {
        return missing(snapshot.fallback_house_status, "fallback-house");
      }
      return sample_answer(*snapshot.fallback_house);
    case PlanKind::kHistogram: {
      if (snapshot.histogram == nullptr) {
        return Status::FailedPrecondition("fleet histogram not built");
      }
      auto answer = snapshot.histogram->Answer(query);
      if (!answer.ok()) return answer.status();
      return SummaryAsApproximate(*answer, snapshot.histogram_residual);
    }
    case PlanKind::kWavelet: {
      if (snapshot.wavelet == nullptr) {
        return Status::FailedPrecondition("fleet wavelet not built");
      }
      auto answer = snapshot.wavelet->Answer(query);
      if (!answer.ok()) return answer.status();
      return SummaryAsApproximate(*answer, snapshot.wavelet_residual);
    }
    case PlanKind::kCombined:
      return ExecuteCombinedPlan(snapshot, query, choice.outlier_strata,
                                 confidence);
    case PlanKind::kExact: {
      // ExecuteExact has already applied HAVING and sorted by key.
      auto exact = ExecuteExactOnSnapshot(snapshot, query);
      if (!exact.ok()) return exact.status();
      return ExactAsApproximate(*exact);
    }
  }
  return Status::Internal("unknown plan kind");
}

Result<PlannedAnswer> Planner::Run(
    const AquaSnapshot& snapshot, const GroupByQuery& query,
    std::chrono::steady_clock::time_point deadline) const {
  auto plan = [&]() -> Result<PlanReport> {
    const auto t0 = std::chrono::steady_clock::now();
    auto planned = Plan(snapshot, query);
    if (!planned.ok()) return planned.status();
    CONGRESS_METRIC_INCR("planner.plans", 1);
    CONGRESS_METRIC_RECORD_NANOS(
        "planner.plan_nanos",
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    return planned;
  };
  PlannedAnswer answer;
  PlanReport& report = answer.report;
  if (query.budget.active()) {
    auto planned = plan();
    if (!planned.ok()) return planned.status();
    report = std::move(planned).value();
  } else if (snapshot.synopsis == nullptr) {
    return Status::InvalidArgument("snapshot has no synopsis");
  }
  // A budget-free query starts at the primary (PlanChoice's default)
  // unscored: only the failure walk needs the scores.

  // Execute, then verify the promise against the realized bounds and
  // escalate toward the exact endpoint while it is broken. A failed
  // attempt moves along the failure walk instead. Every move goes to a
  // plan not yet attempted, so the loop is finite.
  uint32_t attempted = 0;
  while (true) {
    const PlanKind kind = report.chosen.kind;
    if (attempted != 0 && std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded(
          "resilient query deadline expired before " +
          std::string(RungOf(kind).name) + " rung; " + report.failures);
    }
    attempted |= Bit(kind);
    auto result = Execute(snapshot, query, report.chosen);
    if (!result.ok()) {
      if (!report.failures.empty()) report.failures += "; ";
      report.failures += RungOf(kind).name;
      report.failures += ": " + result.status().ToString();
      if (report.candidates.empty()) {
        auto planned = plan();
        if (!planned.ok()) return planned.status();
        report.candidates = std::move(planned->candidates);
      }
      const std::optional<PlanKind> next =
          NextAfterFailure(report.candidates, attempted);
      if (!next.has_value()) {
        return Status::Internal("all degradation rungs failed: " +
                                report.failures);
      }
      report.chosen = PlanChoice{*next, {}};
      report.bound_widening = FailoverWidening(report.candidates, *next);
      continue;
    }
    answer.result = std::move(result).value();
    if (report.bound_widening != 1.0) {
      answer.result.WidenBounds(report.bound_widening);
    }
    if (!query.budget.has_error_budget()) break;
    const double realized =
        WorstRelativeBound(answer.result, options_.estimate_floor);
    report.realized_relative_error = realized;
    if (realized <= query.budget.relative_error) break;

    auto untried = [&](PlanKind k) {
      const CandidateScore* c = FindCandidate(report.candidates, k);
      return c != nullptr && c->eligible && (attempted & Bit(k)) == 0;
    };
    PlanChoice next;
    if (untried(PlanKind::kCombined)) {
      next.kind = PlanKind::kCombined;
      const std::vector<Stratum>& strata =
          snapshot.synopsis->sample().strata();
      next.outlier_strata = TopStrataByPopulation(
          strata, std::min(options_.max_outlier_strata, strata.size() - 1));
    } else if (untried(PlanKind::kExact)) {
      next.kind = PlanKind::kExact;
    } else {
      break;  // Nowhere stronger.
    }
    report.chosen = std::move(next);
    report.bound_widening = 1.0;
    report.escalations += 1;
    CONGRESS_METRIC_INCR("planner.escalations", 1);
  }
  if (!report.failures.empty()) {
    CONGRESS_METRIC_INCR("resilience.degraded_answers", 1);
    if (report.chosen.kind == PlanKind::kExact) {
      CONGRESS_METRIC_INCR("resilience.exact_rebuilds", 1);
    }
  }
  if (report.chosen.kind == PlanKind::kCombined) {
    CONGRESS_METRIC_INCR("planner.combined_plans", 1);
  } else if (report.chosen.kind == PlanKind::kExact) {
    CONGRESS_METRIC_INCR("planner.exact_plans", 1);
  }
  return answer;
}

}  // namespace congress::planner
