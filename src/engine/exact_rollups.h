#ifndef CONGRESS_ENGINE_EXACT_ROLLUPS_H_
#define CONGRESS_ENGINE_EXACT_ROLLUPS_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "engine/query.h"
#include "storage/group_index.h"
#include "storage/table.h"
#include "util/parallel.h"
#include "util/status.h"

namespace congress {

class ZoneMap;

/// A memo of the exact roll-ups of one table over the groupings its
/// index covers — a published snapshot's base relation, census index and
/// zone map. Every exact scan of the snapshot goes through it
/// (ExecuteExactOnSnapshot), and it is the only scan that reads group ids
/// from an index it did not build for the query.
///
/// For each covered grouping (the query's grouping columns, in order) one
/// entry is built on first use under a lock and then only read: the
/// index's Projection onto the grouping, the rows per group, and, when no
/// key holds a NaN, every group in key order, sorted once. A query over a
/// covered grouping reads its group ids and first rows from the entry, so
/// it never projects, and its key order too, so it never sorts unless a
/// key holds a NaN (then its groups are sorted per query, by their first
/// rows, as ExecuteExact sorts). A covered query with no predicate whose
/// aggregates are COUNT(*) or plain numeric columns folds no row at all:
/// its counts are the entry's, and each column's per-group state (Σ for
/// SUM and AVG, the minimum for MIN, the maximum for MAX) is folded once,
/// on the first query that reads it, by ExecuteExact's own fold, then
/// kept.
///
/// Memoized states never exceed, in total, the bytes of the index's
/// row ids (4 per row); a state that would break that bound is folded per
/// query instead. Other covered queries — with a predicate or an
/// expression input — run ExecuteExact's fold over the entry's ids, with
/// the zones, per query. A grouping the index does not cover runs
/// ExecuteExact with the zones.
///
/// Answers are ExecuteExact's bit for bit: a memoized state is the output
/// of the same row-ordered fold over the same rows, the entry's groups
/// are those a scan with the query's own index finds (with the same first
/// rows and keys), and when no key holds a NaN the key order of every
/// group, filtered to any subset, is the order a sort of that subset
/// gives.
///
/// Thread-safe. Entries and states are never changed or dropped once
/// built, so readers use them outside the lock.
///
/// Obs: `engine.exact_rollup_hits` counts answers read from the memo with
/// no row folded, `engine.exact_rollup_builds` every entry and every
/// state added to it, and `engine.exact_covering_scans` the covered
/// answers that fold rows per query. Building an entry records a
/// `project` span; a memo answer records a `rollup` span (and, when it
/// adds a state, that fold's `aggregate` span under it).
class ExactRollups {
 public:
  /// `index` must be a GroupIndex over `table`, and `zones` (null: no
  /// batch is skipped) a ZoneMap of it; Execute refuses either of another
  /// row count with InvalidArgument.
  ExactRollups(std::shared_ptr<const Table> table,
               std::shared_ptr<const GroupIndex> index,
               std::shared_ptr<const ZoneMap> zones);
  ~ExactRollups();

  ExactRollups(const ExactRollups&) = delete;
  ExactRollups& operator=(const ExactRollups&) = delete;

  const std::shared_ptr<const Table>& table() const { return table_; }
  const std::shared_ptr<const GroupIndex>& index() const { return index_; }
  const std::shared_ptr<const ZoneMap>& zones() const { return zones_; }

  /// The exact answer of `query` over table(): bit-identical to
  /// ExecuteExact(*table(), query, options, zones().get()), with the same
  /// statuses.
  Result<QueryResult> Execute(const GroupByQuery& query,
                              const ExecutorOptions& options = {}) const;

  /// Groupings memoized so far.
  size_t num_entries() const;
  /// Bytes of the memoized states, and their bound: the bytes of the
  /// index's row ids.
  size_t state_bytes() const;
  size_t state_byte_limit() const;

 private:
  struct Entry;
  struct Memo;

  /// The entry of `columns` (covered by the index), built on first use.
  Result<Entry*> EntryFor(const std::vector<size_t>& columns,
                          const ExecutorOptions& options) const;

  /// Per aggregate of `query` (COUNT(*) or plain columns), the memoized
  /// per-group state it is finished from (null for COUNT), folding the
  /// missing ones into `entry` first; nullopt when they would break the
  /// byte bound.
  std::optional<std::vector<const double*>> MemoizedStates(
      Entry* entry, const GroupByQuery& query,
      const ExecutorOptions& options) const;

  std::shared_ptr<const Table> table_;
  std::shared_ptr<const GroupIndex> index_;
  std::shared_ptr<const ZoneMap> zones_;
  std::unique_ptr<Memo> memo_;
};

}  // namespace congress

#endif  // CONGRESS_ENGINE_EXACT_ROLLUPS_H_
