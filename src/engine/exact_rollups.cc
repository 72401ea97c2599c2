#include "engine/exact_rollups.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "engine/executor.h"
#include "obs/metrics.h"
#include "obs/scope.h"

namespace congress {

namespace {

/// The state an aggregate of `kind` is finished from: AVG reads SUM's.
AggregateKind StateKind(AggregateKind kind) {
  return kind == AggregateKind::kAvg ? AggregateKind::kSum : kind;
}

}  // namespace

struct ExactRollups::Entry {
  GroupIndex::Projection projection;
  std::vector<uint64_t> counts;      ///< Rows per group.
  std::vector<uint32_t> key_order;   ///< Every group, in key order, if ordered.
  bool ordered = true;               ///< No key holds a NaN.
  /// Memoized states by (column, StateKind): per group, folded in row
  /// order over every row. Added under the memo's lock, never changed.
  std::map<std::pair<size_t, AggregateKind>, std::vector<double>> states;

  exact::GroupIds Ids(const GroupIndex& index) const {
    return {index.row_ids().data(), projection.group_of.data(),
            index.counts(), counts.size()};
  }
};

struct ExactRollups::Memo {
  std::mutex mu;
  std::map<std::vector<size_t>, std::unique_ptr<Entry>> entries;
  size_t state_bytes = 0;
};

ExactRollups::ExactRollups(std::shared_ptr<const Table> table,
                           std::shared_ptr<const GroupIndex> index,
                           std::shared_ptr<const ZoneMap> zones)
    : table_(std::move(table)),
      index_(std::move(index)),
      zones_(std::move(zones)),
      memo_(std::make_unique<Memo>()) {}

ExactRollups::~ExactRollups() = default;

size_t ExactRollups::num_entries() const {
  std::lock_guard<std::mutex> lock(memo_->mu);
  return memo_->entries.size();
}

size_t ExactRollups::state_bytes() const {
  std::lock_guard<std::mutex> lock(memo_->mu);
  return memo_->state_bytes;
}

size_t ExactRollups::state_byte_limit() const {
  return index_->row_ids().size() * sizeof(uint32_t);
}

Result<ExactRollups::Entry*> ExactRollups::EntryFor(
    const std::vector<size_t>& columns, const ExecutorOptions& options) const {
  std::lock_guard<std::mutex> lock(memo_->mu);
  auto it = memo_->entries.find(columns);
  if (it != memo_->entries.end()) return it->second.get();

  CONGRESS_SPAN(project_span, options.scope, "project");
  auto entry = std::make_unique<Entry>();
  auto projected = index_->Project(columns);
  if (!projected.ok()) return projected.status();
  entry->projection = std::move(projected).value();
  const GroupIndex::Projection& projection = entry->projection;
  entry->counts.assign(projection.keys.size(), 0);
  for (size_t id = 0; id < index_->num_groups(); ++id) {
    entry->counts[projection.group_of[id]] += index_->counts()[id];
  }
  // Keys are distinct, so without a NaN RowKeyLess orders them totally.
  for (const GroupKey& key : projection.keys) {
    for (const Value& v : key) {
      entry->ordered =
          entry->ordered && !(v.is_double() && std::isnan(v.AsDouble()));
    }
  }
  if (entry->ordered) {
    entry->key_order.resize(projection.keys.size());
    std::iota(entry->key_order.begin(), entry->key_order.end(), 0u);
    const RowKeyLess key_less(*table_, columns, projection.first_rows);
    std::sort(entry->key_order.begin(), entry->key_order.end(),
              std::cref(key_less));
  }
  CONGRESS_METRIC_INCR("engine.exact_rollup_builds", 1);
  return memo_->entries.emplace(columns, std::move(entry)).first->second.get();
}

std::optional<std::vector<const double*>> ExactRollups::MemoizedStates(
    Entry* entry, const GroupByQuery& query,
    const ExecutorOptions& options) const {
  std::lock_guard<std::mutex> lock(memo_->mu);
  std::vector<AggregateSpec> missing;
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateKind::kCount) continue;
    const AggregateSpec state(StateKind(spec.kind), spec.column);
    if (entry->states.count({state.column, state.kind}) == 0 &&
        std::find(missing.begin(), missing.end(), state) == missing.end()) {
      missing.push_back(state);
    }
  }
  if (!missing.empty()) {
    const size_t bytes =
        missing.size() * entry->counts.size() * sizeof(double);
    if (memo_->state_bytes + bytes > state_byte_limit()) return std::nullopt;
    // ExecuteExact's fold, over every row: the states a predicate-free
    // scan of this grouping folds.
    exact::Folded folded = exact::Fold(*table_, missing, nullptr,
                                       entry->Ids(*index_), nullptr, options);
    const AggregateInputs inputs = DistinctInputs(missing);
    for (size_t m = 0; m < missing.size(); ++m) {
      entry->states.emplace(
          std::make_pair(missing[m].column, missing[m].kind),
          std::move(*folded.states[inputs.input_of[m]].For(missing[m].kind)));
    }
    memo_->state_bytes += bytes;
    CONGRESS_METRIC_INCR("engine.exact_rollup_builds", missing.size());
  }
  std::vector<const double*> state_of(query.aggregates.size(), nullptr);
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const AggregateSpec& spec = query.aggregates[a];
    if (spec.kind == AggregateKind::kCount) continue;
    state_of[a] = entry->states.at({spec.column, StateKind(spec.kind)}).data();
  }
  return state_of;
}

Result<ApproximateResult> ExactRollups::Execute(
    const GroupByQuery& query, const ExecutorOptions& options) const {
  const Table& table = *table_;
  const ZoneMap* zones = zones_.get();
  if (index_->num_rows() != table.num_rows()) {
    return Status::InvalidArgument(
        "index has " + std::to_string(index_->num_rows()) +
        " rows but the table has " + std::to_string(table.num_rows()));
  }
  if (!index_->Covers(query.group_columns)) {
    return ExecuteExact(table, query, options, zones);
  }
  CONGRESS_RETURN_NOT_OK(exact::Validate(table, query, zones));
  auto found = EntryFor(query.group_columns, options);
  if (!found.ok()) return found.status();
  Entry* entry = *found;
  CONGRESS_METRIC_INCR("engine.exact_queries", 1);
  const GroupIndex::Projection& projection = entry->projection;
  const std::vector<uint32_t>* key_order =
      entry->ordered ? &entry->key_order : nullptr;

  bool plain = query.predicate == nullptr;
  for (const AggregateSpec& spec : query.aggregates) {
    plain = plain && spec.expression == nullptr;
  }
  if (plain) {
    CONGRESS_SPAN(rollup_span, options.scope, "rollup");
    const auto state_of = MemoizedStates(
        entry, query, options.WithScope(rollup_span.scope()));
    rollup_span.Stop();
    if (state_of.has_value()) {
      CONGRESS_METRIC_INCR("engine.exact_rollup_hits", 1);
      return exact::Finalize(table, query, entry->counts, *state_of,
                             projection.first_rows, projection.keys,
                             key_order, options);
    }
  }
  CONGRESS_METRIC_INCR("engine.exact_covering_scans", 1);
  exact::Folded folded =
      exact::Fold(table, query.aggregates, query.predicate.get(),
                  entry->Ids(*index_), zones, options);
  return exact::Finalize(table, query, folded.counts,
                         exact::StatesOf(query, folded),
                         projection.first_rows, projection.keys, key_order,
                         options);
}

}  // namespace congress
