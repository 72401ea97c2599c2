#ifndef CONGRESS_ENGINE_EXECUTOR_H_
#define CONGRESS_ENGINE_EXECUTOR_H_

#include <span>
#include <vector>

#include "engine/query.h"
#include "storage/table.h"
#include "util/parallel.h"
#include "util/status.h"

namespace congress {

class ZoneMap;

/// Executes `query` exactly over `table`. This is the ground-truth oracle
/// the accuracy experiments compare against, and the building block of
/// the rewrite strategies' physical plans.
///
/// The query's grouping columns are interned (GroupIndex::Build, parallel
/// over `options.num_threads`). Then one fused, row-ordered pass filters
/// each batch, maps survivors to their groups and folds them: one match
/// count per group, shared by COUNT, AVG and the empty-group test, and
/// one running state per distinct aggregate input (a column, or one
/// expression object), shared by every aggregate over it. Every group
/// folds its rows in ascending row order, as a per-row Accumulator::Add
/// loop would.
///
/// With `zones` (a ZoneMap of `table`, such as a snapshot's), each batch
/// is first classified by the predicate (Predicate::Classify): a batch
/// no row of which can match is skipped, one every row of which matches
/// is folded whole without a filter call, and only the rest are filtered.
/// The surviving rows and their order are those of the filtered pass, so
/// the answer is bit-identical with or without zones.
///
/// The answer is an ApproximateResult whose bounds are zero-width: each
/// group carries its exact aggregates as estimates, zero standard errors
/// and bounds, support 0 and GroupProvenance::kExact.
///
/// Groups with a matching row that pass HAVING are returned in key order:
/// their ids, in first-occurrence order, are sorted by their first rows
/// with RowKeyLess, whose comparisons equal those of the keys, so the
/// order is the one a key sort gives (NaN keys included). Results are
/// bit-identical for every thread count. A `zones` map with a different
/// row count is InvalidArgument.
///
/// A snapshot's exact scans go through its ExactRollups instead
/// (engine/exact_rollups.h), which reads group ids from a memo over the
/// snapshot's census and gives this function's answers bit for bit.
Result<ApproximateResult> ExecuteExact(const Table& table,
                                       const GroupByQuery& query,
                                       const ExecutorOptions& options = {},
                                       const ZoneMap* zones = nullptr);

/// The pieces ExecuteExact is made of: resolving each row's group id
/// (its own index), one fold, and one finalize.
/// ExactRollups (engine/exact_rollups.h) resolves group ids from its memo
/// instead and calls the same fold and finalize, so its answers are
/// ExecuteExact's bit for bit.
namespace exact {

/// Where a scan reads each row's output group: row r belongs to group
/// group_of[row_ids[r]], or to row_ids[r] itself when group_of is null.
/// id_counts holds the number of rows carrying each row_ids value.
struct GroupIds {
  const uint32_t* row_ids = nullptr;
  const uint32_t* group_of = nullptr;
  std::span<const uint64_t> id_counts;
  size_t num_groups = 0;
};

/// The running states of one distinct aggregate input, one slot per
/// group: the sum when a SUM or AVG reads the input, the minimum and
/// maximum only when a MIN or MAX does. Unread states stay empty.
struct InputStates {
  std::vector<double> sum;
  std::vector<double> min;
  std::vector<double> max;

  /// The state an aggregate of `kind` is finished from; null for COUNT,
  /// which reads the group's match count.
  std::vector<double>* For(AggregateKind kind);
};

/// What one fold leaves: a match count per group and the states of each
/// distinct aggregate input, in DistinctInputs order.
struct Folded {
  std::vector<uint64_t> counts;
  std::vector<InputStates> states;
};

/// ExecuteExact's checks of `query` against `table`, and of the row
/// count of `zones` (may be null).
Status Validate(const Table& table, const GroupByQuery& query,
                const ZoneMap* zones);

/// The fused, row-ordered fold of `aggregates` over the rows of `table`
/// that `predicate` (null: every row) selects, batch by batch, into the
/// groups of `ids`, skipping or taking whole the batches `zones` (may be
/// null) classify. Every group folds its rows in ascending row order.
/// Records the `aggregate` span and counts the rows of the batches it
/// visits in engine.rows_scanned.
Folded Fold(const Table& table, const std::vector<AggregateSpec>& aggregates,
            const Predicate* predicate, const GroupIds& ids,
            const ZoneMap* zones, const ExecutorOptions& options);

/// Per aggregate of `query`, the per-group state of `folded` it is
/// finished from (null for COUNT).
std::vector<const double*> StatesOf(const GroupByQuery& query,
                                    Folded& folded);

/// Finishes the groups with a match: each group's values from its match
/// count and `state_of` (one per aggregate, as StatesOf), HAVING, then
/// the survivors in key order with their keys. `key_order`, when given,
/// lists every group in key order and is filtered; otherwise the
/// survivors are sorted by their first rows with RowKeyLess. Each
/// survivor is written straight into the answer as an exact group (see
/// ExecuteExact). Records the `finalize` span.
ApproximateResult Finalize(const Table& table, const GroupByQuery& query,
                           std::span<const uint64_t> counts,
                           std::span<const double* const> state_of,
                           std::span<const uint32_t> first_rows,
                           std::span<const GroupKey> keys,
                           const std::vector<uint32_t>* key_order,
                           const ExecutorOptions& options);

}  // namespace exact

/// Computes the number of tuples in each group at the grouping
/// `group_columns` (COUNT(*) group-by without predicate), keyed by group.
/// A convenience over GroupIndex::Build for tests, oracles and examples;
/// the sample builders read their strata sizes from a GroupCensus.
std::unordered_map<GroupKey, uint64_t, GroupKeyHash> CountGroups(
    const Table& table, const std::vector<size_t>& group_columns,
    const ExecutorOptions& options = {});

/// Hash-joins `left` and `right` on left.left_keys == right.right_keys and
/// returns a table whose columns are all of `left`'s columns followed by
/// `right`'s non-key columns. The Normalized / Key-Normalized rewrite
/// strategies pay exactly this join (Section 5.2 of the paper). The probe
/// side is morsel-parallel; output row order matches the serial probe.
Result<Table> HashJoin(const Table& left, const std::vector<size_t>& left_keys,
                       const Table& right,
                       const std::vector<size_t>& right_keys,
                       const ExecutorOptions& options = {});

}  // namespace congress

#endif  // CONGRESS_ENGINE_EXECUTOR_H_
