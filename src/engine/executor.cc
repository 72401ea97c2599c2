#include "engine/executor.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <string>

#include "engine/kernels.h"
#include "engine/zone_map.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "storage/group_index.h"
#include "util/flat_table.h"

namespace congress {

namespace exact {

Status Validate(const Table& table, const GroupByQuery& query,
                const ZoneMap* zones) {
  for (size_t c : query.group_columns) {
    if (c >= table.num_columns()) {
      return Status::InvalidArgument("group column " + std::to_string(c) +
                                     " out of range");
    }
  }
  for (const AggregateSpec& spec : query.aggregates) {
    CONGRESS_RETURN_NOT_OK(ValidateAggregate(spec, table.schema()));
  }
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  for (const HavingCondition& cond : query.having) {
    if (cond.aggregate_index >= query.aggregates.size()) {
      return Status::InvalidArgument("HAVING references aggregate " +
                                     std::to_string(cond.aggregate_index) +
                                     " but the select list has only " +
                                     std::to_string(query.aggregates.size()));
    }
  }
  if (zones != nullptr && zones->num_rows() != table.num_rows()) {
    return Status::InvalidArgument(
        "zone map has " + std::to_string(zones->num_rows()) +
        " rows but the table has " + std::to_string(table.num_rows()));
  }
  return Status::OK();
}

std::vector<double>* InputStates::For(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
      return &sum;
    case AggregateKind::kMin:
      return &min;
    case AggregateKind::kMax:
      return &max;
    case AggregateKind::kCount:
      break;
  }
  return nullptr;
}

namespace {

/// Keeps the state an aggregate of `kind` reads. Call before folding.
void Want(InputStates* states, AggregateKind kind, size_t num_groups) {
  switch (kind) {
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
      states->sum.assign(num_groups, 0.0);
      break;
    case AggregateKind::kMin:
      states->min.assign(num_groups, std::numeric_limits<double>::infinity());
      break;
    case AggregateKind::kMax:
      states->max.assign(num_groups, -std::numeric_limits<double>::infinity());
      break;
    case AggregateKind::kCount:  // Reads the group's match count.
      break;
  }
}

/// Folds a batch's values into their groups' states: value_at(i) into
/// group group_at(i) for i in [0, n), in ascending i. These are
/// Accumulator::Add's operations in its order: MIN/MAX compare strictly,
/// so a NaN never wins and the first signed zero seen is kept.
template <typename GroupAt, typename ValueAt>
void FoldInto(InputStates* states, size_t n, const GroupAt& group_at,
              const ValueAt& value_at) {
  if (!states->sum.empty()) {
    double* sum = states->sum.data();
    for (size_t i = 0; i < n; ++i) sum[group_at(i)] += value_at(i);
  }
  if (!states->min.empty()) {
    double* min = states->min.data();
    for (size_t i = 0; i < n; ++i) {
      const double v = value_at(i);
      const uint32_t g = group_at(i);
      if (v < min[g]) min[g] = v;
    }
  }
  if (!states->max.empty()) {
    double* max = states->max.data();
    for (size_t i = 0; i < n; ++i) {
      const double v = value_at(i);
      const uint32_t g = group_at(i);
      if (v > max[g]) max[g] = v;
    }
  }
}

/// Accumulator::Finish for a group with `count` > 0 matched rows, whose
/// state of the aggregate's kind is `state` (unread for COUNT).
double Finish(AggregateKind kind, double state, uint64_t count) {
  switch (kind) {
    case AggregateKind::kSum:
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      return state;
    case AggregateKind::kCount:
      return static_cast<double>(count);
    case AggregateKind::kAvg:
      return state / static_cast<double>(count);
  }
  return 0.0;
}

}  // namespace

Folded Fold(const Table& table, const std::vector<AggregateSpec>& aggregates,
            const Predicate* predicate, const GroupIds& ids,
            const ZoneMap* zones, const ExecutorOptions& options) {
  // One fused, row-ordered pass: per L1-sized batch, the predicate
  // selects the survivors (with no predicate every row of the batch is
  // walked densely), each survivor is mapped to its group, and every
  // distinct aggregate input is read once and folded into its running
  // states while the batch is cache-hot. Each group therefore folds its
  // matching rows in ascending row order — the order of a serial per-row
  // loop — so results are bit-identical for every batch size, thread
  // count and id source.
  //
  // The pass runs on the calling thread; options.num_threads speeds up
  // only the id build. Folding costs about a nanosecond per row, and
  // splitting rows between per-group owners (so each still folds in row
  // order) cost more: on a 4-core x86 host a split pass was slower than
  // the earlier per-aggregate fold at 200k rows for 2-8 threads and at 2M
  // rows for 2 threads, and only about a fifth faster at 2M rows for 4
  // threads.
  CONGRESS_SPAN(aggregate_span, options.scope, "aggregate");
  const uint32_t* row_ids = ids.row_ids;
  const uint32_t* group_of = ids.group_of;
  const size_t num_groups = ids.num_groups;
  const AggregateInputs inputs = DistinctInputs(aggregates);
  const size_t num_inputs = inputs.specs.size();
  Folded folded;
  folded.states.resize(num_inputs);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggregateKind kind = aggregates[a].kind;
    if (kind != AggregateKind::kCount) {
      Want(&folded.states[inputs.input_of[a]], kind, num_groups);
    }
  }
  // One match count per group: every aggregate of a group sees the same
  // rows. With no predicate every row matches, so the index's own counts
  // are the match counts.
  std::vector<uint64_t>& counts = folded.counts;
  counts.assign(num_groups, 0);
  const bool dense = predicate == nullptr;
  if (dense) {
    for (size_t id = 0; id < ids.id_counts.size(); ++id) {
      counts[group_of != nullptr ? group_of[id] : id] += ids.id_counts[id];
    }
  }
  bool any_expression = false;
  for (const AggregateSpec* spec : inputs.specs) {
    any_expression = any_expression || spec->expression != nullptr;
  }

  const bool tally_on = kernels::kObsEnabled && options.scope != nullptr;
  // Per batched row: its selection slot, its group slot, one input
  // buffer slot, and the source column cells behind the gathers.
  const uint32_t batch_rows =
      kernels::AdaptiveBatchRows(16 + 16 * std::max<size_t>(num_inputs, 1));
  kernels::KernelTally tally;
  uint64_t rows_scanned = 0;
  SelectionVector rows;
  std::vector<uint32_t> groups(batch_rows);
  std::vector<double> values(batch_rows);
  // Folds one batch of m matching rows, the i-th in group group_at(i):
  // the run [first, first + m) when `run`, else rows[0..m). Plain column
  // inputs of a run are read in place; every other input is gathered or
  // evaluated through `rows`, which then holds the batch's rows.
  auto fold_batch = [&](const auto& group_at, bool run, uint32_t first,
                        size_t m) {
    if (!dense) {
      for (size_t i = 0; i < m; ++i) counts[group_at(i)] += 1;
    }
    for (size_t k = 0; k < num_inputs; ++k) {
      const AggregateSpec& spec = *inputs.specs[k];
      InputStates* states = &folded.states[k];
      tally.eval_batches += 1;
      tally.eval_rows += m;
      if (run && spec.expression == nullptr) {
        if (table.schema().field(spec.column).type == DataType::kInt64) {
          const int64_t* cells = table.Int64Column(spec.column).data() + first;
          FoldInto(states, m, group_at, [cells](size_t i) {
            return static_cast<double>(cells[i]);  // As Table::NumericAt.
          });
        } else {
          const double* cells = table.DoubleColumn(spec.column).data() + first;
          FoldInto(states, m, group_at, [cells](size_t i) { return cells[i]; });
        }
        continue;
      }
      const uint64_t t0 = tally_on ? kernels::TallyClockNanos() : 0;
      AggregateInputBatch(spec, table, rows.data(), m, values.data());
      if (tally_on) tally.eval_nanos += kernels::TallyClockNanos() - t0;
      FoldInto(states, m, group_at,
               [v = values.data()](size_t i) { return v[i]; });
    }
  };
  // With zones, the predicate first classifies each batch from its
  // bounds: a batch no row of which matches is skipped, and one every row
  // of which matches is walked like an unfiltered batch. Either way the
  // surviving rows are the filter's.
  const bool classify = !dense && zones != nullptr;
  const uint32_t n = static_cast<uint32_t>(table.num_rows());
  for (uint32_t begin = 0; begin < n; begin += batch_rows) {
    const uint32_t end = std::min(n, begin + batch_rows);
    const ZoneMatch match = classify ? predicate->Classify(*zones, begin, end)
                                     : ZoneMatch::kSome;
    if (match == ZoneMatch::kNone) {
      tally.batches_skipped += 1;
      continue;
    }
    rows_scanned += end - begin;
    const bool whole = dense || match == ZoneMatch::kAll;
    if (!dense && whole) tally.batches_whole += 1;
    uint32_t first = begin;
    size_t m = end - begin;
    if (whole) {
      if (any_expression) {
        rows.resize(m);
        for (size_t i = 0; i < m; ++i) {
          rows[i] = begin + static_cast<uint32_t>(i);
        }
      }
    } else {
      rows.clear();
      const uint64_t t0 = tally_on ? kernels::TallyClockNanos() : 0;
      predicate->MatchBatch(table, begin, end, nullptr, &rows);
      if (tally_on) tally.match_nanos += kernels::TallyClockNanos() - t0;
      tally.match_batches += 1;
      tally.match_rows_in += end - begin;
      tally.match_rows_selected += rows.size();
      m = rows.size();
      if (m == 0) continue;
      first = rows[0];
    }
    // A selection that is one contiguous run (such as a range over a
    // clustered column) is walked like an unfiltered batch.
    if (whole || first + m - 1 == rows[m - 1]) {
      const uint32_t* run_ids = row_ids + first;
      if (group_of == nullptr) {
        fold_batch([run_ids](size_t i) { return run_ids[i]; }, true, first,
                   m);
      } else {
        fold_batch(
            [run_ids, group_of](size_t i) { return group_of[run_ids[i]]; },
            true, first, m);
      }
    } else {
      for (size_t i = 0; i < m; ++i) {
        const uint32_t id = row_ids[rows[i]];
        groups[i] = group_of != nullptr ? group_of[id] : id;
      }
      fold_batch([g = groups.data()](size_t i) { return g[i]; }, false, first,
                 m);
    }
  }
  CONGRESS_METRIC_INCR("engine.rows_scanned", rows_scanned);
  kernels::RecordKernelTally(tally, aggregate_span.scope());
  return folded;
}

std::vector<const double*> StatesOf(const GroupByQuery& query,
                                    Folded& folded) {
  const AggregateInputs inputs = DistinctInputs(query.aggregates);
  std::vector<const double*> state_of(query.aggregates.size(), nullptr);
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const AggregateKind kind = query.aggregates[a].kind;
    if (kind == AggregateKind::kCount) continue;
    state_of[a] = folded.states[inputs.input_of[a]].For(kind)->data();
  }
  return state_of;
}

QueryResult Finalize(const Table& table, const GroupByQuery& query,
                     std::span<const uint64_t> counts,
                     std::span<const double* const> state_of,
                     std::span<const uint32_t> first_rows,
                     std::span<const GroupKey> keys,
                     const std::vector<uint32_t>* key_order,
                     const ExecutorOptions& options) {
  // Each matched group's values, HAVING, then the survivors in key
  // order. Sorting group ids by their first rows, in first-occurrence
  // order, with comparisons identical to those of the keys gives the
  // order a key sort of the rows gives, NaN keys included. A given
  // key_order is that sort of every group, done once; filtering it gives
  // the sort of any subset when the order is total (no NaN key).
  CONGRESS_SPAN(finalize_span, options.scope, "finalize");
  const size_t num_groups = counts.size();
  const size_t num_aggs = query.aggregates.size();
  std::vector<double> finals(num_groups * num_aggs);
  auto passes = [&](uint32_t g) {
    if (counts[g] == 0) return false;  // No row matched the predicate.
    double* out = finals.data() + g * num_aggs;
    for (size_t a = 0; a < num_aggs; ++a) {
      out[a] = Finish(query.aggregates[a].kind,
                      state_of[a] != nullptr ? state_of[a][g] : 0.0,
                      counts[g]);
    }
    return PassesHaving(query.having, out, num_aggs);
  };
  std::vector<uint32_t> order;
  order.reserve(num_groups);
  if (key_order != nullptr) {
    for (uint32_t g : *key_order) {
      if (passes(g)) order.push_back(g);
    }
  } else {
    for (uint32_t g = 0; g < num_groups; ++g) {
      if (passes(g)) order.push_back(g);
    }
    const RowKeyLess key_less(table, query.group_columns, first_rows);
    std::sort(order.begin(), order.end(), std::cref(key_less));
  }
  QueryResult result;
  result.Reserve(order.size());
  for (uint32_t g : order) {
    const double* out = finals.data() + g * num_aggs;
    result.Add(keys[g], std::vector<double>(out, out + num_aggs));
  }
  return result;
}

}  // namespace exact

Result<QueryResult> ExecuteExact(const Table& table, const GroupByQuery& query,
                                 const ExecutorOptions& options,
                                 const ZoneMap* zones) {
  CONGRESS_RETURN_NOT_OK(exact::Validate(table, query, zones));
  CONGRESS_METRIC_INCR("engine.exact_queries", 1);
  // Row r belongs to group row_ids[r] of the query's own index; the
  // intern/merge/remap spans land directly on options.scope.
  auto built = GroupIndex::Build(table, query.group_columns, options);
  if (!built.ok()) return built.status();
  const GroupIndex& own = *built;
  exact::Folded folded = exact::Fold(
      table, query.aggregates, query.predicate.get(),
      {own.row_ids().data(), nullptr, own.counts(), own.num_groups()}, zones,
      options);
  return exact::Finalize(table, query, folded.counts,
                         exact::StatesOf(query, folded), own.first_rows(),
                         own.keys(), nullptr, options);
}

std::unordered_map<GroupKey, uint64_t, GroupKeyHash> CountGroups(
    const Table& table, const std::vector<size_t>& group_columns,
    const ExecutorOptions& options) {
  std::unordered_map<GroupKey, uint64_t, GroupKeyHash> counts;
  auto index = GroupIndex::Build(table, group_columns, options);
  // Out-of-range grouping columns yield an empty count map rather than
  // dereferencing an error Result.
  if (!index.ok()) return counts;
  counts.reserve(index->num_groups());
  for (size_t g = 0; g < index->num_groups(); ++g) {
    counts.emplace(index->keys()[g], index->counts()[g]);
  }
  return counts;
}

Result<Table> HashJoin(const Table& left, const std::vector<size_t>& left_keys,
                       const Table& right,
                       const std::vector<size_t>& right_keys,
                       const ExecutorOptions& options) {
  if (left_keys.size() != right_keys.size()) {
    return Status::InvalidArgument("join key arity mismatch");
  }
  CONGRESS_METRIC_INCR("engine.hash_joins", 1);
  // Build side: right table, assumed the smaller (AuxRel in the paper).
  // Interning the right keys gives per-key row lists in ascending row
  // order — the same match order the per-row build map produced.
  CONGRESS_SPAN(build_span, options.scope, "join_build");
  auto build_index =
      GroupIndex::Build(right, right_keys, options.WithScope(build_span.scope()));
  if (!build_index.ok()) return build_index.status();
  const GroupIndex::RowLists build_lists = build_index->GroupRows();
  build_span.Stop();

  // Output schema: all left columns + right non-key columns.
  std::vector<Field> fields = left.schema().fields();
  std::vector<size_t> right_payload_cols;
  for (size_t c = 0; c < right.num_columns(); ++c) {
    bool is_key = false;
    for (size_t k : right_keys) {
      if (k == c) {
        is_key = true;
        break;
      }
    }
    if (!is_key) {
      right_payload_cols.push_back(c);
      Field f = right.schema().field(c);
      // Disambiguate duplicate names from the probe side.
      while (true) {
        bool clash = false;
        for (const Field& existing : fields) {
          if (existing.name == f.name) {
            clash = true;
            break;
          }
        }
        if (!clash) break;
        f.name += "_r";
      }
      fields.push_back(f);
    }
  }
  Table out{Schema(std::move(fields))};

  // Probe side: intern the left key columns once, resolve each distinct
  // left key against the build index once, then fan the probe out over
  // morsels. Each morsel gathers its (left row, right row) match pairs
  // and emits them column-wise through the typed append kernel — no
  // per-cell Value boxing. Per-morsel outputs are concatenated in morsel
  // order, so the output row order matches the serial left-to-right
  // probe, with right matches in ascending right-row order as before.
  CONGRESS_SPAN(probe_span, options.scope, "join_probe");
  auto probe_index =
      GroupIndex::Build(left, left_keys, options.WithScope(probe_span.scope()));
  if (!probe_index.ok()) return probe_index.status();
  // Probe group id -> build group id (kNoId when the key has no match).
  std::vector<uint32_t> matches(probe_index->num_groups(), FlatIdTable::kNoId);
  for (size_t g = 0; g < probe_index->num_groups(); ++g) {
    auto id = build_index->IdOf(probe_index->keys()[g]);
    if (id.ok()) matches[g] = *id;
  }

  const auto ranges = MorselRanges(left.num_rows(), options.morsel_size);
  std::vector<Table> partials;
  partials.reserve(ranges.size());
  for (size_t m = 0; m < ranges.size(); ++m) partials.push_back(out.CloneEmpty());
  const std::vector<uint32_t>& row_ids = probe_index->row_ids();
  ParallelFor(options.ResolvedThreads(), ranges.size(), [&](size_t m) {
    Table& partial = partials[m];
    SelectionVector left_rows;
    SelectionVector right_rows;
    for (size_t row = ranges[m].first; row < ranges[m].second; ++row) {
      const uint32_t bg = matches[row_ids[row]];
      if (bg == FlatIdTable::kNoId) continue;
      for (uint64_t i = build_lists.offsets[bg];
           i < build_lists.offsets[bg + 1]; ++i) {
        left_rows.push_back(static_cast<uint32_t>(row));
        right_rows.push_back(build_lists.rows[i]);
      }
    }
    for (size_t c = 0; c < left.num_columns(); ++c) {
      kernels::GatherAppendColumn(left, c, left_rows.data(), left_rows.size(),
                                  &partial, c);
    }
    for (size_t i = 0; i < right_payload_cols.size(); ++i) {
      kernels::GatherAppendColumn(right, right_payload_cols[i],
                                  right_rows.data(), right_rows.size(),
                                  &partial, left.num_columns() + i);
    }
    partial.SetRowCount(left_rows.size());
  });
  probe_span.Stop();
  CONGRESS_SPAN(append_span, options.scope, "join_append");
  for (size_t m = 0; m < ranges.size(); ++m) {
    out.AppendFrom(partials[m]);
  }
  append_span.Stop();
  CONGRESS_METRIC_INCR("engine.join_rows_emitted", out.num_rows());
  return out;
}

}  // namespace congress
