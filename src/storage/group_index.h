#ifndef CONGRESS_STORAGE_GROUP_INDEX_H_
#define CONGRESS_STORAGE_GROUP_INDEX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "storage/table.h"
#include "storage/value.h"
#include "util/flat_table.h"
#include "util/parallel.h"
#include "util/status.h"

namespace congress {

/// A row→stratum mapping computed in one pass over the grouping columns:
/// every distinct composite key is interned into a dense uint32_t group
/// id, and each row carries its id. Scans that used to re-materialize a
/// heap-allocated GroupKey per row (exact execution, group censuses,
/// sample construction, estimator evaluation) instead index flat vectors
/// by id.
///
/// Ids are assigned in first-occurrence row order, and the build is
/// morsel-parallel with a deterministic in-order merge, so the mapping is
/// identical for every thread count. The intern dictionaries are flat
/// open-addressing tables over precomputed row hashes (FlatIdTable) —
/// zero allocations per row, unlike the node-based std::unordered_map
/// they replaced — and a single int64 grouping column takes a typed fast
/// path that skips composite-key hashing entirely. Neither changes any
/// id: assignment order is first-occurrence, independent of the table.
class GroupIndex {
 public:
  GroupIndex() = default;

  /// Interns the composite keys of `table` over `group_columns`. An empty
  /// `group_columns` yields a single group holding every row (the
  /// no-group-by case); an empty table yields zero groups.
  static Result<GroupIndex> Build(const Table& table,
                                  const std::vector<size_t>& group_columns,
                                  const ExecutorOptions& options = {});

  /// The grouping columns the index was built over, in key order.
  const std::vector<size_t>& columns() const { return columns_; }

  size_t num_rows() const { return row_ids_.size(); }
  size_t num_groups() const { return keys_.size(); }
  uint64_t total_rows() const { return row_ids_.size(); }

  /// Distinct group keys, indexed by id (first-occurrence order).
  const std::vector<GroupKey>& keys() const { return keys_; }
  const GroupKey& KeyOf(uint32_t id) const { return keys_[id]; }

  /// Per-row group ids, aligned with the table's rows.
  const std::vector<uint32_t>& row_ids() const { return row_ids_; }

  /// Per-group row counts, aligned with keys().
  const std::vector<uint64_t>& counts() const { return counts_; }

  /// Per-group first row: the smallest row carrying the group's id, whose
  /// values are the group's key. Aligned with keys().
  const std::vector<uint32_t>& first_rows() const { return first_rows_; }

  /// Id of `key`, or NotFound.
  Result<uint32_t> IdOf(const GroupKey& key) const;

  /// True when every column in `columns` is one of columns(), so each
  /// group at `columns` is a union of this index's groups.
  bool Covers(const std::vector<size_t>& columns) const;

  /// A coarser grouping read off this one: `group_of` maps each of this
  /// index's ids to its group at the projected columns, `keys` holds the
  /// projected keys in `columns` order and `first_rows` each projected
  /// group's first row. A row's projected id is group_of[row_ids()[row]]
  /// — no per-row hashing.
  struct Projection {
    std::vector<uint32_t> group_of;    ///< num_groups() entries.
    std::vector<GroupKey> keys;        ///< Projected id -> key.
    std::vector<uint32_t> first_rows;  ///< Projected id -> first row.
  };

  /// Projects onto `columns`, which must be covered (InvalidArgument
  /// otherwise). Interns the projected keys once, walking this index's
  /// groups in id order. Ids are first-occurrence ordered, so the first
  /// group to carry a projected key holds that key's first row: projected
  /// ids, keys (including a -0.0 vs +0.0 representative) and first rows
  /// equal those of a direct Build over `columns` on the same table. The
  /// one exception is a single string column, whose direct Build numbers
  /// groups by dictionary code; keys and first rows are the same either
  /// way.
  Result<Projection> Project(const std::vector<size_t>& columns) const;

  /// Rows regrouped by id: group g owns rows()[offsets()[g] ..
  /// offsets()[g+1]), each run in ascending row order. This is the layout
  /// the parallel aggregators scan so per-group accumulation visits rows
  /// in the same order as a serial full-table pass.
  struct RowLists {
    std::vector<uint64_t> offsets;  ///< num_groups + 1 entries.
    std::vector<uint32_t> rows;     ///< num_rows entries.
  };
  RowLists GroupRows() const;

 private:
  std::vector<size_t> columns_;
  std::vector<GroupKey> keys_;
  std::vector<uint32_t> row_ids_;
  std::vector<uint64_t> counts_;
  std::vector<uint32_t> first_rows_;
  /// Key lookup for IdOf: GroupKeyHash-hashed probe against keys_.
  FlatIdTable lookup_;
};

/// Splits groups [0, num_groups) into contiguous chunks of roughly
/// `target_rows` rows each (per `offsets`, as returned by GroupRows), so
/// a skewed group distribution still load-balances across workers. Always
/// returns at least one chunk when num_groups > 0.
std::vector<std::pair<size_t, size_t>> BalancedGroupChunks(
    std::span<const uint64_t> offsets, uint64_t target_rows);

}  // namespace congress

#endif  // CONGRESS_STORAGE_GROUP_INDEX_H_
