#ifndef CONGRESS_ENGINE_EXECUTOR_H_
#define CONGRESS_ENGINE_EXECUTOR_H_

#include "engine/query.h"
#include "storage/table.h"
#include "util/parallel.h"
#include "util/status.h"

namespace congress {

class GroupIndex;
class ZoneMap;

/// Executes `query` exactly over `table`. This is the ground-truth oracle
/// the accuracy experiments compare against, and the building block of
/// the rewrite strategies' physical plans.
///
/// Group ids come from `covering` when it is a GroupIndex over `table`
/// whose columns include every query grouping column (a snapshot's
/// finest-strata index): it is projected onto the query's columns once,
/// with no per-row hashing. Otherwise the query's own grouping columns
/// are interned (GroupIndex::Build, parallel over `options.num_threads`).
/// Then one fused, row-ordered pass filters each batch, maps survivors to
/// their groups and folds them: one match count per group, shared by
/// COUNT, AVG and the empty-group test, and one running state per
/// distinct aggregate input (a column, or one expression object), shared
/// by every aggregate over it. Every group folds its rows in ascending
/// row order, as a per-row Accumulator::Add loop would.
///
/// With `zones` (a ZoneMap of `table`, such as a snapshot's), each batch
/// is first classified by the predicate (Predicate::Classify): a batch
/// no row of which can match is skipped, one every row of which matches
/// is folded whole without a filter call, and only the rest are filtered.
/// The surviving rows and their order are those of the filtered pass, so
/// the answer is bit-identical with or without zones.
///
/// Groups with a matching row that pass HAVING are returned in key order:
/// their ids, in first-occurrence order, are sorted by their first rows
/// with RowKeyLess, whose comparisons equal those of the keys, so the
/// order is the one a key sort gives (NaN keys included). Results are
/// bit-identical for every thread count and either id source.
/// A `covering` index or `zones` map with a different row count is
/// InvalidArgument.
Result<QueryResult> ExecuteExact(const Table& table, const GroupByQuery& query,
                                 const ExecutorOptions& options = {},
                                 const GroupIndex* covering = nullptr,
                                 const ZoneMap* zones = nullptr);

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
