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
/// index covers — a published snapshot's base relation and census index.
/// Every exact scan of the snapshot goes through it (ExecuteExactOnSnapshot).
///
/// For each covered grouping (the query's grouping columns, in order) one
/// entry is built on first use under a lock and then only read: the
/// index's Projection onto the grouping, the rows per group, and every
/// group in key order, sorted once. A query over a covered grouping reads
/// its group ids, first rows and key order from the entry, so it neither
/// projects nor sorts. A covered query with no predicate whose aggregates
/// are COUNT(*) or plain numeric columns folds no row at all: its counts
/// are the entry's, and each column's per-group state (Σ for SUM and AVG,
/// the minimum for MIN, the maximum for MAX) is folded once, on the first
/// query that reads it, by ExecuteExact's own fold, then kept.
///
/// Memoized states never exceed, in total, the bytes of the index's
/// row ids (4 per row); a state that would break that bound is folded per
/// query instead. Other queries — with a predicate, an expression input,
/// or a grouping the index does not cover — run ExecuteExact's fold, with
/// zones, per query.
///
/// Answers are ExecuteExact's bit for bit: a memoized state is the output
/// of the same row-ordered fold over the same rows, the entry's
/// projection is the one ExecuteExact projects, and when no key holds a
/// NaN the key order of every group, filtered to any subset, is the
/// order a sort of that subset gives. An index with a NaN key (a census
/// never has one) is used as ExecuteExact's covering index instead.
///
/// Thread-safe. Entries and states are never changed or dropped once
/// built, so readers use them outside the lock.
///
/// Obs: `engine.exact_rollup_hits` counts answers read from the memo with
/// no row folded, `engine.exact_rollup_builds` every entry and every
/// state added to it; a memo answer records a `rollup` span (and, when it
/// adds a state, that fold's `aggregate` span under it).
class ExactRollups {
 public:
  /// `index` must be a GroupIndex over `table`.
  ExactRollups(std::shared_ptr<const Table> table,
               std::shared_ptr<const GroupIndex> index);
  ~ExactRollups();

  ExactRollups(const ExactRollups&) = delete;
  ExactRollups& operator=(const ExactRollups&) = delete;

  const std::shared_ptr<const Table>& table() const { return table_; }
  const std::shared_ptr<const GroupIndex>& index() const { return index_; }

  /// The exact answer of `query` over table(): bit-identical to
  /// ExecuteExact(*table(), query, options, index().get(), zones), with
  /// the same statuses.
  Result<QueryResult> Execute(const GroupByQuery& query,
                              const ExecutorOptions& options = {},
                              const ZoneMap* zones = nullptr) const;

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
  std::unique_ptr<Memo> memo_;
};

}  // namespace congress

#endif  // CONGRESS_ENGINE_EXACT_ROLLUPS_H_
