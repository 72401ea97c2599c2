#ifndef CONGRESS_ENGINE_KERNELS_H_
#define CONGRESS_ENGINE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/table.h"
#include "util/simd.h"

namespace congress {

namespace obs {
class Scope;
}  // namespace obs

/// A selection vector: row indices in ascending order, the currency of
/// the batch kernel layer (the MonetDB/X100 execution model). Predicates
/// consume and produce selection vectors; expressions and aggregates
/// gather through them into flat double buffers. Every kernel is a plain
/// loop over typed column storage, so the scalar per-row path and the
/// batch path fold the same values in the same order — bit-identical
/// results are a contract, not an accident.
using SelectionVector = std::vector<uint32_t>;

namespace kernels {

/// Candidate iteration shared by every filter kernel: visits the rows
/// [begin, end) when `sel_in` is null, else the slice sel_in[begin..end),
/// appending each row for which `pred(row)` holds to `sel_out`. `sel_out`
/// is appended to, never cleared, so filters compose (AND chains feed one
/// kernel's output slice into the next).
template <typename Pred>
inline void FilterGeneric(uint32_t begin, uint32_t end,
                          const uint32_t* sel_in, SelectionVector* sel_out,
                          const Pred& pred) {
  if (sel_in == nullptr) {
    for (uint32_t row = begin; row < end; ++row) {
      if (pred(row)) sel_out->push_back(row);
    }
  } else {
    for (uint32_t i = begin; i < end; ++i) {
      const uint32_t row = sel_in[i];
      if (pred(row)) sel_out->push_back(row);
    }
  }
}

/// Typed SIMD-dispatched filters. Same contract as FilterGeneric: dense
/// rows [begin, end) when `sel_in` is null, else the slice
/// sel_in[begin..end); matches append to `sel_out` in ascending order.
/// Each routes to the process-wide simd::Active() table, whose scalar and
/// vector implementations select identical rows.
///
/// Numeric comparisons view int64 cells through the widened double, the
/// predicate semantics (`cmp(static_cast<double>(v))`).
void FilterCompareDouble(const double* data, uint32_t begin, uint32_t end,
                         const uint32_t* sel_in, simd::Cmp op, double rhs,
                         SelectionVector* sel_out);
void FilterCompareInt64(const int64_t* data, uint32_t begin, uint32_t end,
                        const uint32_t* sel_in, simd::Cmp op, double rhs,
                        SelectionVector* sel_out);
/// Keeps rows with lo <= v <= hi (NaN never matches).
void FilterRangeDouble(const double* data, uint32_t begin, uint32_t end,
                       const uint32_t* sel_in, double lo, double hi,
                       SelectionVector* sel_out);
void FilterRangeInt64(const int64_t* data, uint32_t begin, uint32_t end,
                      const uint32_t* sel_in, double lo, double hi,
                      SelectionVector* sel_out);
/// Exact int64 equality (no widening — values beyond 2^53 stay exact).
void FilterEqualsInt64(const int64_t* data, uint32_t begin, uint32_t end,
                       const uint32_t* sel_in, int64_t want,
                       SelectionVector* sel_out);
/// String equality via dictionary codes: keeps rows whose code equals
/// `want_code` (`keep_equal`) or differs from it. Callers resolve the
/// comparison string to a code through Table::Dictionary first; a string
/// absent from the dictionary matches no row (eq) or every row (ne)
/// without any per-row work.
void FilterStringCode(const std::vector<int32_t>& codes, uint32_t begin,
                      uint32_t end, const uint32_t* sel_in, int32_t want_code,
                      bool keep_equal, SelectionVector* sel_out);

/// Gathers the numeric view of column `col` at rows[0..n) into out[0..n)
/// (int64 widened to double, exactly like Table::NumericAt). The type
/// switch is resolved once per batch instead of once per row.
void GatherNumeric(const Table& table, size_t col, const uint32_t* rows,
                   size_t n, double* out);

/// Rows per kernel batch such that the batch's working set — roughly
/// `bytes_per_row` of hot data per processed row (selection slots, the
/// aggregate input buffer, the source columns) — fits in about half the
/// L1 data cache, clamped to [256, 65536] and rounded to a multiple of
/// 64. The cache size is detected once per process (sysconf, 32 KiB
/// fallback); CONGRESS_BATCH_BYTES overrides the byte budget directly.
/// Slicing a row run into such batches never changes results: each slice
/// is filtered and folded in the same order as the unsliced run.
uint32_t AdaptiveBatchRows(size_t bytes_per_row);

/// Fills out[0..n) with `value` (COUNT's constant-1 input).
void FillConstant(double value, size_t n, double* out);

/// Appends the cells of `src` column `src_col` at rows[0..n) onto `dst`
/// column `dst_col` via the typed mutable accessors — the columnar join
/// emit. Column types must match (asserted in debug builds). The caller
/// commits the row count once every column has been appended
/// (Table::SetRowCount).
void GatherAppendColumn(const Table& src, size_t src_col,
                        const uint32_t* rows, size_t n, Table* dst,
                        size_t dst_col);

/// Whether kernel instrumentation is compiled in. Under
/// CONGRESS_DISABLE_OBS this is a compile-time false, so every tally
/// branch and clock read below folds away to nothing.
#ifdef CONGRESS_DISABLE_OBS
inline constexpr bool kObsEnabled = false;
#else
inline constexpr bool kObsEnabled = true;
#endif

/// Per-worker kernel bookkeeping, merged after a parallel stage and
/// recorded once: how many batches ran, rows in/selected for the filter
/// kernels, batches a zone map let the filter skip or take whole, rows
/// evaluated by the expression kernels, and (when a span scope is
/// attached) nanoseconds spent in each kernel family.
struct KernelTally {
  uint64_t match_batches = 0;
  uint64_t batches_skipped = 0;
  uint64_t batches_whole = 0;
  uint64_t match_rows_in = 0;
  uint64_t match_rows_selected = 0;
  uint64_t match_nanos = 0;
  uint64_t eval_batches = 0;
  uint64_t eval_rows = 0;
  uint64_t eval_nanos = 0;

  void Merge(const KernelTally& other) {
    match_batches += other.match_batches;
    batches_skipped += other.batches_skipped;
    batches_whole += other.batches_whole;
    match_rows_in += other.match_rows_in;
    match_rows_selected += other.match_rows_selected;
    match_nanos += other.match_nanos;
    eval_batches += other.eval_batches;
    eval_rows += other.eval_rows;
    eval_nanos += other.eval_nanos;
  }

  bool empty() const {
    return match_batches == 0 && batches_skipped == 0 && batches_whole == 0 &&
           eval_batches == 0;
  }
};

/// Monotonic nanosecond clock for kernel tallies. Call only when timing
/// is on (scope attached and kObsEnabled); returns 0 otherwise-unused.
uint64_t TallyClockNanos();

/// Publishes a merged tally: "match_batch"/"eval_batch" span children
/// under `scope` (skipped when null) and the global kernels.* counters,
/// kernels.match.batches_skipped and kernels.match.batches_whole among
/// them.
/// Compiled to a no-op under CONGRESS_DISABLE_OBS.
void RecordKernelTally(const KernelTally& tally, obs::Scope* scope);

}  // namespace kernels
}  // namespace congress

#endif  // CONGRESS_ENGINE_KERNELS_H_
