#include "engine/kernels.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/metrics.h"
#include "obs/scope.h"

namespace congress::kernels {

void FilterCompareDouble(const double* data, uint32_t begin, uint32_t end,
                         const uint32_t* sel_in, simd::Cmp op, double rhs,
                         SelectionVector* sel_out) {
  const simd::Ops& ops = simd::Active();
  if (sel_in == nullptr) {
    ops.filter_cmp_f64_dense(data, begin, end, op, rhs, sel_out);
  } else {
    ops.filter_cmp_f64_indexed(data, sel_in, begin, end, op, rhs, sel_out);
  }
}

void FilterCompareInt64(const int64_t* data, uint32_t begin, uint32_t end,
                        const uint32_t* sel_in, simd::Cmp op, double rhs,
                        SelectionVector* sel_out) {
  const simd::Ops& ops = simd::Active();
  if (sel_in == nullptr) {
    ops.filter_cmp_i64w_dense(data, begin, end, op, rhs, sel_out);
  } else {
    ops.filter_cmp_i64w_indexed(data, sel_in, begin, end, op, rhs, sel_out);
  }
}

void FilterRangeDouble(const double* data, uint32_t begin, uint32_t end,
                       const uint32_t* sel_in, double lo, double hi,
                       SelectionVector* sel_out) {
  const simd::Ops& ops = simd::Active();
  if (sel_in == nullptr) {
    ops.filter_range_f64_dense(data, begin, end, lo, hi, sel_out);
  } else {
    ops.filter_range_f64_indexed(data, sel_in, begin, end, lo, hi, sel_out);
  }
}

void FilterRangeInt64(const int64_t* data, uint32_t begin, uint32_t end,
                      const uint32_t* sel_in, double lo, double hi,
                      SelectionVector* sel_out) {
  const simd::Ops& ops = simd::Active();
  if (sel_in == nullptr) {
    ops.filter_range_i64w_dense(data, begin, end, lo, hi, sel_out);
  } else {
    ops.filter_range_i64w_indexed(data, sel_in, begin, end, lo, hi, sel_out);
  }
}

void FilterEqualsInt64(const int64_t* data, uint32_t begin, uint32_t end,
                       const uint32_t* sel_in, int64_t want,
                       SelectionVector* sel_out) {
  const simd::Ops& ops = simd::Active();
  if (sel_in == nullptr) {
    ops.filter_eq_i64_dense(data, begin, end, want, sel_out);
  } else {
    ops.filter_eq_i64_indexed(data, sel_in, begin, end, want, sel_out);
  }
}

void FilterStringCode(const std::vector<int32_t>& codes, uint32_t begin,
                      uint32_t end, const uint32_t* sel_in, int32_t want_code,
                      bool keep_equal, SelectionVector* sel_out) {
  const simd::Ops& ops = simd::Active();
  if (sel_in == nullptr) {
    ops.filter_eq_i32_dense(codes.data(), begin, end, want_code, keep_equal,
                            sel_out);
  } else {
    ops.filter_eq_i32_indexed(codes.data(), sel_in, begin, end, want_code,
                              keep_equal, sel_out);
  }
}

namespace {

size_t DetectL1DataBytes() {
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const long detected = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  if (detected > 0) return static_cast<size_t>(detected);
#endif
  return 32 * 1024;
}

size_t BatchByteBudget() {
  if (const char* env = std::getenv("CONGRESS_BATCH_BYTES")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && v > 0) {
      return std::clamp<size_t>(static_cast<size_t>(v), 1024, 1 << 24);
    }
  }
  // Half the L1D: the batch shares the cache with accumulators, stack,
  // and the column stream's read-ahead.
  return DetectL1DataBytes() / 2;
}

}  // namespace

uint32_t AdaptiveBatchRows(size_t bytes_per_row) {
  static const size_t budget = BatchByteBudget();
  if (bytes_per_row == 0) bytes_per_row = 1;
  size_t rows = budget / bytes_per_row;
  rows = std::clamp<size_t>(rows, 256, 65536);
  return static_cast<uint32_t>(rows & ~size_t{63});
}

void GatherNumeric(const Table& table, size_t col, const uint32_t* rows,
                   size_t n, double* out) {
  switch (table.schema().field(col).type) {
    case DataType::kInt64: {
      const std::vector<int64_t>& data = table.Int64Column(col);
      simd::Active().gather_i64_to_f64(data.data(), rows, n, out);
      break;
    }
    case DataType::kDouble: {
      const std::vector<double>& data = table.DoubleColumn(col);
      simd::Active().gather_f64(data.data(), rows, n, out);
      break;
    }
    case DataType::kString:
      // Mirrors Table::NumericAt on a string column: a programming error
      // upstream validation rejects before any kernel runs.
      assert(false && "GatherNumeric on a string column");
      for (size_t i = 0; i < n; ++i) out[i] = 0.0;
      break;
  }
}

void FillConstant(double value, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = value;
}

void GatherAppendColumn(const Table& src, size_t src_col,
                        const uint32_t* rows, size_t n, Table* dst,
                        size_t dst_col) {
  assert(src.schema().field(src_col).type ==
         dst->schema().field(dst_col).type);
  switch (src.schema().field(src_col).type) {
    case DataType::kInt64: {
      const std::vector<int64_t>& in = src.Int64Column(src_col);
      std::vector<int64_t>& out = dst->MutableInt64Column(dst_col);
      for (size_t i = 0; i < n; ++i) out.push_back(in[rows[i]]);
      break;
    }
    case DataType::kDouble: {
      const std::vector<double>& in = src.DoubleColumn(src_col);
      std::vector<double>& out = dst->MutableDoubleColumn(dst_col);
      for (size_t i = 0; i < n; ++i) out.push_back(in[rows[i]]);
      break;
    }
    case DataType::kString: {
      const std::vector<std::string>& in = src.StringColumn(src_col);
      std::vector<std::string>& out = dst->MutableStringColumn(dst_col);
      for (size_t i = 0; i < n; ++i) out.push_back(in[rows[i]]);
      break;
    }
  }
}

uint64_t TallyClockNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RecordKernelTally(const KernelTally& tally, obs::Scope* scope) {
#ifdef CONGRESS_DISABLE_OBS
  (void)tally;
  (void)scope;
#else
  if (tally.empty()) return;
  if (tally.match_batches > 0) {
    CONGRESS_METRIC_INCR("kernels.match.batches", tally.match_batches);
    CONGRESS_METRIC_INCR("kernels.match.rows_in", tally.match_rows_in);
    CONGRESS_METRIC_INCR("kernels.match.rows_selected",
                         tally.match_rows_selected);
    if (scope != nullptr) {
      scope->Child("match_batch")->RecordNanos(tally.match_nanos);
    }
  }
  if (tally.batches_skipped > 0) {
    CONGRESS_METRIC_INCR("kernels.match.batches_skipped",
                         tally.batches_skipped);
  }
  if (tally.batches_whole > 0) {
    CONGRESS_METRIC_INCR("kernels.match.batches_whole", tally.batches_whole);
  }
  if (tally.eval_batches > 0) {
    CONGRESS_METRIC_INCR("kernels.eval.batches", tally.eval_batches);
    CONGRESS_METRIC_INCR("kernels.eval.rows", tally.eval_rows);
    if (scope != nullptr) {
      scope->Child("eval_batch")->RecordNanos(tally.eval_nanos);
    }
  }
#endif
}

}  // namespace congress::kernels
