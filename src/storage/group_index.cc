#include "storage/group_index.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

#include "obs/metrics.h"
#include "obs/scope.h"
#include "util/hash.h"

namespace congress {

namespace {

/// Type-resolved view of one grouping column, so the per-row hash/equality
/// probes touch the column vectors directly instead of re-materializing
/// Values.
struct ColumnRef {
  DataType type = DataType::kInt64;
  const std::vector<int64_t>* i64 = nullptr;
  const std::vector<double>* f64 = nullptr;
  /// String columns probe their dictionary codes, never the strings:
  /// code equality is string equality (codes are a per-column global
  /// intern), so hashing and comparing int32 codes gives the same
  /// partition — and the same first-occurrence ids — as the string path
  /// it replaced, without touching character data per row.
  const std::vector<int32_t>* codes = nullptr;
};

std::vector<ColumnRef> ResolveColumns(const Table& table,
                                      const std::vector<size_t>& cols) {
  std::vector<ColumnRef> refs;
  refs.reserve(cols.size());
  for (size_t c : cols) {
    ColumnRef ref;
    ref.type = table.schema().field(c).type;
    switch (ref.type) {
      case DataType::kInt64:
        ref.i64 = &table.Int64Column(c);
        break;
      case DataType::kDouble:
        ref.f64 = &table.DoubleColumn(c);
        break;
      case DataType::kString:
        ref.codes = &table.CodeColumn(c);
        break;
    }
    refs.push_back(ref);
  }
  return refs;
}

size_t HashRow(const std::vector<ColumnRef>& refs, size_t row) {
  size_t seed = refs.size();
  for (const ColumnRef& ref : refs) {
    switch (ref.type) {
      case DataType::kInt64:
        HashCombine(&seed, std::hash<int64_t>{}((*ref.i64)[row]));
        break;
      case DataType::kDouble: {
        // Normalize -0.0: RowsEqual compares with ==, which treats the
        // two zeros as equal, so they must hash equally on every stdlib
        // (see Value::Hash).
        double d = (*ref.f64)[row];
        if (d == 0.0) d = 0.0;
        HashCombine(&seed, std::hash<double>{}(d));
        break;
      }
      case DataType::kString:
        HashCombine(&seed, std::hash<int32_t>{}((*ref.codes)[row]));
        break;
    }
  }
  return seed;
}

bool RowsEqual(const std::vector<ColumnRef>& refs, size_t a, size_t b) {
  for (const ColumnRef& ref : refs) {
    switch (ref.type) {
      case DataType::kInt64:
        if ((*ref.i64)[a] != (*ref.i64)[b]) return false;
        break;
      case DataType::kDouble:
        if ((*ref.f64)[a] != (*ref.f64)[b]) return false;
        break;
      case DataType::kString:
        if ((*ref.codes)[a] != (*ref.codes)[b]) return false;
        break;
    }
  }
  return true;
}

/// Per-morsel interning state: a dictionary keyed by the first row seen
/// with each key, plus local id assignments in first-occurrence order.
struct LocalDict {
  std::vector<uint32_t> reps;     ///< local id -> representative row.
  std::vector<uint64_t> counts;   ///< local id -> rows in this morsel.
};

/// Phases 1–3 of the build, generic over the row hash/equality pair so
/// the composite-key path and the single-int64 fast path share the same
/// deterministic structure. `hash_of(row)` must be a pure function of the
/// row's key and `rows_eq(a, b)` the matching equality; ids come out in
/// first-occurrence row order regardless of either.
template <typename HashFn, typename EqFn>
std::vector<uint32_t> InternRows(
    const std::vector<std::pair<size_t, size_t>>& ranges,
    const ExecutorOptions& options, const HashFn& hash_of, const EqFn& rows_eq,
    uint32_t* row_ids, std::vector<uint64_t>* counts) {
  // Phase 1 (parallel): intern each morsel against a local flat table,
  // writing morsel-local ids into the (disjoint) row id slots. The table
  // stores (hash, id) only; representative rows live in the LocalDict.
  CONGRESS_SPAN(intern_span, options.scope, "intern");
  std::vector<LocalDict> locals(ranges.size());
  ParallelFor(options.ResolvedThreads(), ranges.size(), [&](size_t m) {
    const auto [begin, end] = ranges[m];
    LocalDict& local = locals[m];
    FlatIdTable dict;
    for (size_t row = begin; row < end; ++row) {
      auto [id, inserted] = dict.Emplace(
          hash_of(row), static_cast<uint32_t>(local.reps.size()),
          [&](uint32_t cand) { return rows_eq(local.reps[cand], row); });
      if (inserted) {
        local.reps.push_back(static_cast<uint32_t>(row));
        local.counts.push_back(0);
      }
      local.counts[id] += 1;
      row_ids[row] = id;
    }
  });
  intern_span.Stop();

  // Phase 2 (serial, morsel order): merge local dictionaries into global
  // ids. Global ids land in first-occurrence row order — identical to a
  // serial one-pass intern, whatever the thread count. Rep hashes are
  // recomputed here (one per distinct key per morsel, not per row).
  CONGRESS_SPAN(merge_span, options.scope, "merge");
  std::vector<uint32_t> reps;  // global id -> representative row.
  FlatIdTable global;
  std::vector<std::vector<uint32_t>> remaps(ranges.size());
  for (size_t m = 0; m < ranges.size(); ++m) {
    const LocalDict& local = locals[m];
    std::vector<uint32_t>& remap = remaps[m];
    remap.resize(local.reps.size());
    for (size_t l = 0; l < local.reps.size(); ++l) {
      const uint32_t rep = local.reps[l];
      auto [gid, inserted] = global.Emplace(
          hash_of(rep), static_cast<uint32_t>(reps.size()),
          [&](uint32_t cand) { return rows_eq(reps[cand], rep); });
      if (inserted) {
        reps.push_back(rep);
        counts->push_back(0);
      }
      remap[l] = gid;
      (*counts)[gid] += local.counts[l];
    }
  }
  merge_span.Stop();

  // Phase 3 (parallel): rewrite morsel-local ids to global ids.
  CONGRESS_SPAN(remap_span, options.scope, "remap");
  ParallelFor(options.ResolvedThreads(), ranges.size(), [&](size_t m) {
    const auto [begin, end] = ranges[m];
    const std::vector<uint32_t>& remap = remaps[m];
    for (size_t row = begin; row < end; ++row) {
      row_ids[row] = remap[row_ids[row]];
    }
  });
  remap_span.Stop();
  return reps;
}

}  // namespace

Result<GroupIndex> GroupIndex::Build(const Table& table,
                                     const std::vector<size_t>& group_columns,
                                     const ExecutorOptions& options) {
  for (size_t c : group_columns) {
    if (c >= table.num_columns()) {
      return Status::InvalidArgument("group column " + std::to_string(c) +
                                     " out of range");
    }
  }
  const size_t n = table.num_rows();
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("table exceeds 2^32 rows");
  }

  GroupIndex index;
  index.columns_ = group_columns;
  if (n == 0) return index;

  if (group_columns.empty()) {
    // No-group-by: one group, the empty key.
    index.row_ids_.assign(n, 0);
    index.keys_.push_back(GroupKey{});
    index.counts_.push_back(n);
    index.first_rows_.push_back(0);
    index.lookup_.Emplace(GroupKeyHash{}(GroupKey{}), 0,
                          [](uint32_t) { return false; });
    return index;
  }

  const auto ranges = MorselRanges(n, options.morsel_size);
  index.row_ids_.resize(n);
  CONGRESS_METRIC_INCR("group_index.builds", 1);
  CONGRESS_METRIC_INCR("group_index.rows_interned", n);

  if (group_columns.size() == 1 &&
      table.schema().field(group_columns[0]).type == DataType::kString) {
    // Fastest path: a single string grouping column needs no interning at
    // all. Dictionary codes are dense ids assigned in first-occurrence
    // row order — exactly the group-id contract — so the build is a copy
    // of the code column plus a counting pass, and the keys come straight
    // from the dictionary. Deterministic by construction (no hashing, no
    // thread-dependent state).
    CONGRESS_METRIC_INCR("group_index.dict_fastpath_builds", 1);
    const std::vector<int32_t>& codes = table.CodeColumn(group_columns[0]);
    const StringDictionary& dict = table.Dictionary(group_columns[0]);
    index.counts_.assign(dict.size(), 0);
    index.first_rows_.assign(dict.size(), 0);
    for (size_t row = 0; row < n; ++row) {
      const uint32_t id = static_cast<uint32_t>(codes[row]);
      index.row_ids_[row] = id;
      if (index.counts_[id]++ == 0) index.first_rows_[id] = row;
    }
    index.keys_.reserve(dict.size());
    for (size_t g = 0; g < dict.size(); ++g) {
      index.keys_.push_back(GroupKey{Value(dict.At(static_cast<int32_t>(g)))});
    }
    index.lookup_.Reserve(index.keys_.size());
    for (uint32_t g = 0; g < index.keys_.size(); ++g) {
      index.lookup_.Emplace(GroupKeyHash{}(index.keys_[g]), g,
                            [](uint32_t) { return false; });
    }
    return index;
  }

  if (group_columns.size() == 1 &&
      table.schema().field(group_columns[0]).type == DataType::kInt64) {
    // Fast path: a single int64 grouping column probes the raw column
    // directly — no ColumnRef dispatch per row. The hash matches the
    // composite HashRow for a one-int64 key, so behavior (and every
    // assigned id) is the same either way.
    CONGRESS_METRIC_INCR("group_index.fastpath_builds", 1);
    const std::vector<int64_t>& data = table.Int64Column(group_columns[0]);
    const auto hash_of = [&data](size_t row) {
      size_t seed = 1;
      HashCombine(&seed, std::hash<int64_t>{}(data[row]));
      return static_cast<uint64_t>(seed);
    };
    const auto rows_eq = [&data](size_t a, size_t b) {
      return data[a] == data[b];
    };
    index.first_rows_ = InternRows(ranges, options, hash_of, rows_eq,
                                   index.row_ids_.data(), &index.counts_);
  } else {
    const std::vector<ColumnRef> refs = ResolveColumns(table, group_columns);
    const auto hash_of = [&refs](size_t row) {
      return static_cast<uint64_t>(HashRow(refs, row));
    };
    const auto rows_eq = [&refs](size_t a, size_t b) {
      return RowsEqual(refs, a, b);
    };
    index.first_rows_ = InternRows(ranges, options, hash_of, rows_eq,
                                   index.row_ids_.data(), &index.counts_);
  }

  // InternRows's representatives are each group's first row.
  index.keys_.reserve(index.first_rows_.size());
  for (uint32_t rep : index.first_rows_) {
    index.keys_.push_back(table.KeyForRow(rep, group_columns));
  }
  index.lookup_.Reserve(index.keys_.size());
  for (uint32_t g = 0; g < index.keys_.size(); ++g) {
    // Keys are distinct by construction, so the insert never collides
    // with an equal resident.
    index.lookup_.Emplace(GroupKeyHash{}(index.keys_[g]), g,
                          [](uint32_t) { return false; });
  }
  return index;
}

Result<uint32_t> GroupIndex::IdOf(const GroupKey& key) const {
  const uint32_t id = lookup_.Find(
      GroupKeyHash{}(key), [&](uint32_t cand) { return keys_[cand] == key; });
  if (id == FlatIdTable::kNoId) {
    return Status::NotFound("group " + GroupKeyToString(key) + " not present");
  }
  return id;
}

bool GroupIndex::Covers(const std::vector<size_t>& columns) const {
  for (size_t c : columns) {
    if (std::find(columns_.begin(), columns_.end(), c) == columns_.end()) {
      return false;
    }
  }
  return true;
}

Result<GroupIndex::Projection> GroupIndex::Project(
    const std::vector<size_t>& columns) const {
  std::vector<size_t> positions;
  positions.reserve(columns.size());
  for (size_t c : columns) {
    auto it = std::find(columns_.begin(), columns_.end(), c);
    if (it == columns_.end()) {
      return Status::InvalidArgument("column " + std::to_string(c) +
                                     " is not a grouping column of the index");
    }
    positions.push_back(static_cast<size_t>(it - columns_.begin()));
  }
  Projection projection;
  projection.group_of.resize(keys_.size());
  FlatIdTable dict(keys_.size());
  GroupKey key;
  for (size_t g = 0; g < keys_.size(); ++g) {
    key.clear();
    for (size_t pos : positions) key.push_back(keys_[g][pos]);
    auto [id, inserted] = dict.Emplace(
        GroupKeyHash{}(key), static_cast<uint32_t>(projection.keys.size()),
        [&](uint32_t cand) { return projection.keys[cand] == key; });
    if (inserted) {
      projection.keys.push_back(key);
      projection.first_rows.push_back(first_rows_[g]);
    }
    projection.group_of[g] = id;
  }
  return projection;
}

GroupIndex::RowLists GroupIndex::GroupRows() const {
  RowLists lists;
  lists.offsets.resize(num_groups() + 1, 0);
  for (size_t g = 0; g < num_groups(); ++g) {
    lists.offsets[g + 1] = lists.offsets[g] + counts_[g];
  }
  lists.rows.resize(row_ids_.size());
  std::vector<uint64_t> cursor(lists.offsets.begin(), lists.offsets.end() - 1);
  for (size_t row = 0; row < row_ids_.size(); ++row) {
    lists.rows[cursor[row_ids_[row]]++] = static_cast<uint32_t>(row);
  }
  return lists;
}

std::vector<std::pair<size_t, size_t>> BalancedGroupChunks(
    std::span<const uint64_t> offsets, uint64_t target_rows) {
  std::vector<std::pair<size_t, size_t>> chunks;
  const size_t num_groups = offsets.empty() ? 0 : offsets.size() - 1;
  if (num_groups == 0) return chunks;
  if (target_rows == 0) target_rows = 1;
  size_t start = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    if (offsets[g + 1] - offsets[start] >= target_rows) {
      chunks.emplace_back(start, g + 1);
      start = g + 1;
    }
  }
  if (start < num_groups) chunks.emplace_back(start, num_groups);
  return chunks;
}

}  // namespace congress
