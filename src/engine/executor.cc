#include "engine/executor.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "engine/kernels.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "storage/group_index.h"
#include "util/flat_table.h"

namespace congress {

namespace {

Status ValidateQuery(const Table& table, const GroupByQuery& query) {
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
  return Status::OK();
}

}  // namespace

Result<QueryResult> ExecuteExact(const Table& table, const GroupByQuery& query,
                                 const ExecutorOptions& options,
                                 const GroupIndex* covering) {
  CONGRESS_RETURN_NOT_OK(ValidateQuery(table, query));
  if (covering != nullptr && covering->num_rows() != table.num_rows()) {
    return Status::InvalidArgument(
        "covering index has " + std::to_string(covering->num_rows()) +
        " rows but the table has " + std::to_string(table.num_rows()));
  }
  CONGRESS_METRIC_INCR("engine.exact_queries", 1);
  CONGRESS_METRIC_INCR("engine.rows_scanned", table.num_rows());

  // Group ids: row r belongs to output group group_of[row_ids[r]], or
  // row_ids[r] itself without a projection. A covering index (one built
  // over a superset of the query's grouping columns, e.g. a snapshot's
  // finest strata) is projected once per query — no per-row hashing.
  // Otherwise the query's own columns are interned; the intern/merge/remap
  // spans land directly on options.scope.
  const bool project =
      covering != nullptr && covering->Covers(query.group_columns);
  GroupIndex own;
  GroupIndex::Projection projection;
  if (project) {
    CONGRESS_METRIC_INCR("engine.exact_covering_scans", 1);
    CONGRESS_SPAN(project_span, options.scope, "project");
    auto projected = covering->Project(query.group_columns);
    if (!projected.ok()) return projected.status();
    projection = std::move(projected).value();
  } else {
    auto built = GroupIndex::Build(table, query.group_columns, options);
    if (!built.ok()) return built.status();
    own = std::move(built).value();
  }
  const uint32_t* row_ids =
      project ? covering->row_ids().data() : own.row_ids().data();
  const uint32_t* group_of = project ? projection.group_of.data() : nullptr;
  const std::vector<GroupKey>& keys = project ? projection.keys : own.keys();
  const size_t num_groups = keys.size();
  const size_t num_aggs = query.aggregates.size();

  // One row-ordered pass: per L1-sized batch, the predicate selects the
  // survivors, each survivor is mapped to its group, and every aggregate
  // folds the batch while it is cache-hot. Each group therefore folds its
  // matching rows in ascending row order — the order of a serial per-row
  // loop — so results are bit-identical for every batch size, thread
  // count and id source.
  //
  // The pass runs on the calling thread; options.num_threads speeds up
  // only the id build. Folding costs a few ns per row, and splitting rows
  // between per-group owners (so each still folds in row order) cost as
  // much again: on a 4-core x86 host the split pass was slower than this
  // one at 200k rows for 2-8 threads and at 2M rows for 2 threads, and
  // only about a fifth faster at 2M rows for 4 threads.
  CONGRESS_SPAN(aggregate_span, options.scope, "aggregate");
  std::vector<Accumulator> accs;
  accs.reserve(num_groups * num_aggs);
  for (size_t g = 0; g < num_groups; ++g) {
    for (const AggregateSpec& spec : query.aggregates) {
      accs.emplace_back(spec.kind);
    }
  }
  const bool tally_on = kernels::kObsEnabled && options.scope != nullptr;
  // Per batched row: its selection slot, its group slot, one input
  // buffer slot, and the source column cells behind the gathers.
  const uint32_t batch_rows = kernels::AdaptiveBatchRows(16 + 16 * num_aggs);
  kernels::KernelTally tally;
  SelectionVector rows;
  std::vector<uint32_t> groups;
  std::vector<double> inputs;
  const uint32_t n = static_cast<uint32_t>(table.num_rows());
  for (uint32_t begin = 0; begin < n; begin += batch_rows) {
    const uint32_t end = std::min(n, begin + batch_rows);
    rows.clear();
    if (query.predicate == nullptr) {
      for (uint32_t row = begin; row < end; ++row) rows.push_back(row);
    } else {
      const uint64_t t0 = tally_on ? kernels::TallyClockNanos() : 0;
      query.predicate->MatchBatch(table, begin, end, nullptr, &rows);
      if (tally_on) tally.match_nanos += kernels::TallyClockNanos() - t0;
      tally.match_batches += 1;
      tally.match_rows_in += end - begin;
      tally.match_rows_selected += rows.size();
      if (rows.empty()) continue;
    }
    const size_t m = rows.size();
    groups.resize(m);
    for (size_t i = 0; i < m; ++i) {
      const uint32_t id = row_ids[rows[i]];
      groups[i] = group_of != nullptr ? group_of[id] : id;
    }
    if (inputs.size() < m) inputs.resize(m);
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggregateSpec& spec = query.aggregates[a];
      const double* values = nullptr;  // COUNT folds no input values.
      if (spec.kind != AggregateKind::kCount) {
        const uint64_t t0 = tally_on ? kernels::TallyClockNanos() : 0;
        AggregateInputBatch(spec, table, rows.data(), m, inputs.data());
        if (tally_on) tally.eval_nanos += kernels::TallyClockNanos() - t0;
        values = inputs.data();
      }
      tally.eval_batches += 1;
      tally.eval_rows += m;
      Accumulator::AddScattered(spec.kind, values, groups.data(), m,
                                accs.data() + a, num_aggs);
    }
  }
  kernels::RecordKernelTally(tally, aggregate_span.scope());
  aggregate_span.Stop();

  CONGRESS_SPAN(finalize_span, options.scope, "finalize");
  QueryResult result;
  for (size_t g = 0; g < num_groups; ++g) {
    const Accumulator* group = accs.data() + g * num_aggs;
    if (group[0].count() == 0) continue;  // No row matched the predicate.
    std::vector<double> finals;
    finals.reserve(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) finals.push_back(group[a].Finish());
    result.Add(keys[g], std::move(finals));
  }
  result.FilterHaving(query.having);
  result.SortByKey();
  return result;
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
