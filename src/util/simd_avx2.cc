// AVX2 backend for the simd::Ops dispatch table. This translation unit is
// the only one compiled with -mavx2 (see src/CMakeLists.txt), so AVX2
// instructions cannot leak into code that runs before the runtime CPU
// check in simd.cc selects this table.
//
// Selection identity is the contract: every kernel here appends exactly
// the rows, in exactly the order, that the scalar reference in simd.cc
// appends. Filters use compare + movemask + table-driven compress-store
// (the classic selection-vector emit); the stores write a full vector of
// lanes but never past the reserved upper bound, because the write cursor
// trails the read cursor by at least one vector.

#include "util/simd.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <array>
#include <limits>

namespace congress::simd {
namespace detail {

namespace {

// Byte-shuffle table compacting the set lanes of a 4-bit mask: entry m is
// the _mm_shuffle_epi8 control that packs the uint32 lanes whose bit is
// set in m to the front, left to right.
constexpr std::array<std::array<uint8_t, 16>, 16> MakeCompress4() {
  std::array<std::array<uint8_t, 16>, 16> table{};
  for (int m = 0; m < 16; ++m) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if (m & (1 << lane)) {
        for (int b = 0; b < 4; ++b) {
          table[m][out * 4 + b] = static_cast<uint8_t>(lane * 4 + b);
        }
        ++out;
      }
    }
    for (; out < 4; ++out) {
      for (int b = 0; b < 4; ++b) table[m][out * 4 + b] = 0x80;
    }
  }
  return table;
}
alignas(16) constexpr auto kCompress4 = MakeCompress4();

// Dword-permute table for 8-bit masks: entry m feeds
// _mm256_permutevar8x32_epi32 to pack the set lanes to the front.
constexpr std::array<std::array<int32_t, 8>, 256> MakeCompress8() {
  std::array<std::array<int32_t, 8>, 256> table{};
  for (int m = 0; m < 256; ++m) {
    int out = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if (m & (1 << lane)) table[m][out++] = lane;
    }
    for (; out < 8; ++out) table[m][out] = 0;
  }
  return table;
}
alignas(32) constexpr auto kCompress8 = MakeCompress8();

/// Prepares `out` for up to `n` appended indices and returns the write
/// base. The caller truncates to the real count afterwards.
inline uint32_t* GrowFor(std::vector<uint32_t>* out, size_t n,
                         size_t* base) {
  *base = out->size();
  out->resize(*base + n);
  return out->data() + *base;
}

/// Emits the lanes of `vrows` selected by `mask` (4-bit) at dst + cnt.
inline size_t Emit4(uint32_t* dst, size_t cnt, __m128i vrows, int mask) {
  const __m128i shuf = _mm_load_si128(
      reinterpret_cast<const __m128i*>(kCompress4[mask].data()));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + cnt),
                   _mm_shuffle_epi8(vrows, shuf));
  return cnt + static_cast<unsigned>(__builtin_popcount(mask));
}

/// Emits the lanes of `vrows` selected by `mask` (8-bit) at dst + cnt.
inline size_t Emit8(uint32_t* dst, size_t cnt, __m256i vrows, int mask) {
  const __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kCompress8[mask].data()));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + cnt),
                      _mm256_permutevar8x32_epi32(vrows, perm));
  return cnt + static_cast<unsigned>(__builtin_popcount(mask));
}

/// 4-lane double compare by Cmp op. The immediates are the ordered-quiet
/// (OQ) predicates except kNe, which must be unordered (UQ) because
/// scalar `v != rhs` is true for NaN.
template <Cmp kOp>
inline __m256d CmpPd(__m256d v, __m256d rhs) {
  if constexpr (kOp == Cmp::kEq) return _mm256_cmp_pd(v, rhs, _CMP_EQ_OQ);
  if constexpr (kOp == Cmp::kNe) return _mm256_cmp_pd(v, rhs, _CMP_NEQ_UQ);
  if constexpr (kOp == Cmp::kLt) return _mm256_cmp_pd(v, rhs, _CMP_LT_OQ);
  if constexpr (kOp == Cmp::kLe) return _mm256_cmp_pd(v, rhs, _CMP_LE_OQ);
  if constexpr (kOp == Cmp::kGt) return _mm256_cmp_pd(v, rhs, _CMP_GT_OQ);
  return _mm256_cmp_pd(v, rhs, _CMP_GE_OQ);
}

/// Row indices at or above 2^31 would read as negative i32 gather
/// indices; selection vectors are ascending, so checking the last entry
/// of the slice suffices. Tables that large fall back to scalar.
inline bool GatherSafe(const uint32_t* sel, uint32_t begin, uint32_t end) {
  return begin == end || sel[end - 1] < 0x80000000u;
}

// --- double compare / range filters ----------------------------------------

template <Cmp kOp>
void CmpF64Dense(const double* data, uint32_t begin, uint32_t end, double rhs,
                 std::vector<uint32_t>* out) {
  const uint32_t n = end - begin;
  size_t base = 0;
  uint32_t* dst = GrowFor(out, n, &base);
  size_t cnt = 0;
  const __m256d vrhs = _mm256_set1_pd(rhs);
  __m128i vrows = _mm_setr_epi32(
      static_cast<int>(begin), static_cast<int>(begin + 1),
      static_cast<int>(begin + 2), static_cast<int>(begin + 3));
  const __m128i vinc = _mm_set1_epi32(4);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(data + begin + i);
    const int mask = _mm256_movemask_pd(CmpPd<kOp>(v, vrhs));
    cnt = Emit4(dst, cnt, vrows, mask);
    vrows = _mm_add_epi32(vrows, vinc);
  }
  for (; i < n; ++i) {
    if (CmpApply(kOp, data[begin + i], rhs)) dst[cnt++] = begin + i;
  }
  out->resize(base + cnt);
}

template <Cmp kOp>
void CmpF64Indexed(const double* data, const uint32_t* sel, uint32_t begin,
                   uint32_t end, double rhs, std::vector<uint32_t>* out) {
  if (!GatherSafe(sel, begin, end)) {
    ScalarOps().filter_cmp_f64_indexed(data, sel, begin, end, kOp, rhs, out);
    return;
  }
  const uint32_t n = end - begin;
  size_t base = 0;
  uint32_t* dst = GrowFor(out, n, &base);
  size_t cnt = 0;
  const __m256d vrhs = _mm256_set1_pd(rhs);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vrows = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(sel + begin + i));
    const __m256d v = _mm256_i32gather_pd(data, vrows, 8);
    const int mask = _mm256_movemask_pd(CmpPd<kOp>(v, vrhs));
    cnt = Emit4(dst, cnt, vrows, mask);
  }
  for (; i < n; ++i) {
    const uint32_t row = sel[begin + i];
    if (CmpApply(kOp, data[row], rhs)) dst[cnt++] = row;
  }
  out->resize(base + cnt);
}

void FilterCmpF64Dense(const double* data, uint32_t begin, uint32_t end,
                       Cmp op, double rhs, std::vector<uint32_t>* out) {
  switch (op) {
    case Cmp::kEq: CmpF64Dense<Cmp::kEq>(data, begin, end, rhs, out); break;
    case Cmp::kNe: CmpF64Dense<Cmp::kNe>(data, begin, end, rhs, out); break;
    case Cmp::kLt: CmpF64Dense<Cmp::kLt>(data, begin, end, rhs, out); break;
    case Cmp::kLe: CmpF64Dense<Cmp::kLe>(data, begin, end, rhs, out); break;
    case Cmp::kGt: CmpF64Dense<Cmp::kGt>(data, begin, end, rhs, out); break;
    case Cmp::kGe: CmpF64Dense<Cmp::kGe>(data, begin, end, rhs, out); break;
  }
}

void FilterCmpF64Indexed(const double* data, const uint32_t* sel,
                         uint32_t begin, uint32_t end, Cmp op, double rhs,
                         std::vector<uint32_t>* out) {
  switch (op) {
    case Cmp::kEq: CmpF64Indexed<Cmp::kEq>(data, sel, begin, end, rhs, out); break;
    case Cmp::kNe: CmpF64Indexed<Cmp::kNe>(data, sel, begin, end, rhs, out); break;
    case Cmp::kLt: CmpF64Indexed<Cmp::kLt>(data, sel, begin, end, rhs, out); break;
    case Cmp::kLe: CmpF64Indexed<Cmp::kLe>(data, sel, begin, end, rhs, out); break;
    case Cmp::kGt: CmpF64Indexed<Cmp::kGt>(data, sel, begin, end, rhs, out); break;
    case Cmp::kGe: CmpF64Indexed<Cmp::kGe>(data, sel, begin, end, rhs, out); break;
  }
}

void FilterRangeF64Dense(const double* data, uint32_t begin, uint32_t end,
                         double lo, double hi, std::vector<uint32_t>* out) {
  const uint32_t n = end - begin;
  size_t base = 0;
  uint32_t* dst = GrowFor(out, n, &base);
  size_t cnt = 0;
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  __m128i vrows = _mm_setr_epi32(
      static_cast<int>(begin), static_cast<int>(begin + 1),
      static_cast<int>(begin + 2), static_cast<int>(begin + 3));
  const __m128i vinc = _mm_set1_epi32(4);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(data + begin + i);
    const __m256d m = _mm256_and_pd(_mm256_cmp_pd(v, vlo, _CMP_GE_OQ),
                                    _mm256_cmp_pd(v, vhi, _CMP_LE_OQ));
    cnt = Emit4(dst, cnt, vrows, _mm256_movemask_pd(m));
    vrows = _mm_add_epi32(vrows, vinc);
  }
  for (; i < n; ++i) {
    const double v = data[begin + i];
    if (v >= lo && v <= hi) dst[cnt++] = begin + i;
  }
  out->resize(base + cnt);
}

void FilterRangeF64Indexed(const double* data, const uint32_t* sel,
                           uint32_t begin, uint32_t end, double lo, double hi,
                           std::vector<uint32_t>* out) {
  if (!GatherSafe(sel, begin, end)) {
    ScalarOps().filter_range_f64_indexed(data, sel, begin, end, lo, hi, out);
    return;
  }
  const uint32_t n = end - begin;
  size_t base = 0;
  uint32_t* dst = GrowFor(out, n, &base);
  size_t cnt = 0;
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vrows = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(sel + begin + i));
    const __m256d v = _mm256_i32gather_pd(data, vrows, 8);
    const __m256d m = _mm256_and_pd(_mm256_cmp_pd(v, vlo, _CMP_GE_OQ),
                                    _mm256_cmp_pd(v, vhi, _CMP_LE_OQ));
    cnt = Emit4(dst, cnt, vrows, _mm256_movemask_pd(m));
  }
  for (; i < n; ++i) {
    const uint32_t row = sel[begin + i];
    const double v = data[row];
    if (v >= lo && v <= hi) dst[cnt++] = row;
  }
  out->resize(base + cnt);
}

// --- int64-widened-to-double filters ---------------------------------------
// AVX2 has no packed int64→double conversion (that is AVX-512DQ), so the
// widening runs as four scalar converts into a vector; compare and
// compress still run SIMD. The converts are exactly
// static_cast<double>(x), so selection matches the scalar loop.

inline __m256d WidenI64(const int64_t* p) {
  return _mm256_setr_pd(static_cast<double>(p[0]), static_cast<double>(p[1]),
                        static_cast<double>(p[2]), static_cast<double>(p[3]));
}

inline __m256d WidenI64At(const int64_t* data, const uint32_t* rows) {
  return _mm256_setr_pd(static_cast<double>(data[rows[0]]),
                        static_cast<double>(data[rows[1]]),
                        static_cast<double>(data[rows[2]]),
                        static_cast<double>(data[rows[3]]));
}

template <Cmp kOp>
void CmpI64wDense(const int64_t* data, uint32_t begin, uint32_t end,
                  double rhs, std::vector<uint32_t>* out) {
  const uint32_t n = end - begin;
  size_t base = 0;
  uint32_t* dst = GrowFor(out, n, &base);
  size_t cnt = 0;
  const __m256d vrhs = _mm256_set1_pd(rhs);
  __m128i vrows = _mm_setr_epi32(
      static_cast<int>(begin), static_cast<int>(begin + 1),
      static_cast<int>(begin + 2), static_cast<int>(begin + 3));
  const __m128i vinc = _mm_set1_epi32(4);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = WidenI64(data + begin + i);
    cnt = Emit4(dst, cnt, vrows, _mm256_movemask_pd(CmpPd<kOp>(v, vrhs)));
    vrows = _mm_add_epi32(vrows, vinc);
  }
  for (; i < n; ++i) {
    if (CmpApply(kOp, static_cast<double>(data[begin + i]), rhs)) {
      dst[cnt++] = begin + i;
    }
  }
  out->resize(base + cnt);
}

template <Cmp kOp>
void CmpI64wIndexed(const int64_t* data, const uint32_t* sel, uint32_t begin,
                    uint32_t end, double rhs, std::vector<uint32_t>* out) {
  const uint32_t n = end - begin;
  size_t base = 0;
  uint32_t* dst = GrowFor(out, n, &base);
  size_t cnt = 0;
  const __m256d vrhs = _mm256_set1_pd(rhs);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vrows = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(sel + begin + i));
    const __m256d v = WidenI64At(data, sel + begin + i);
    cnt = Emit4(dst, cnt, vrows, _mm256_movemask_pd(CmpPd<kOp>(v, vrhs)));
  }
  for (; i < n; ++i) {
    const uint32_t row = sel[begin + i];
    if (CmpApply(kOp, static_cast<double>(data[row]), rhs)) dst[cnt++] = row;
  }
  out->resize(base + cnt);
}

void FilterCmpI64wDense(const int64_t* data, uint32_t begin, uint32_t end,
                        Cmp op, double rhs, std::vector<uint32_t>* out) {
  switch (op) {
    case Cmp::kEq: CmpI64wDense<Cmp::kEq>(data, begin, end, rhs, out); break;
    case Cmp::kNe: CmpI64wDense<Cmp::kNe>(data, begin, end, rhs, out); break;
    case Cmp::kLt: CmpI64wDense<Cmp::kLt>(data, begin, end, rhs, out); break;
    case Cmp::kLe: CmpI64wDense<Cmp::kLe>(data, begin, end, rhs, out); break;
    case Cmp::kGt: CmpI64wDense<Cmp::kGt>(data, begin, end, rhs, out); break;
    case Cmp::kGe: CmpI64wDense<Cmp::kGe>(data, begin, end, rhs, out); break;
  }
}

void FilterCmpI64wIndexed(const int64_t* data, const uint32_t* sel,
                          uint32_t begin, uint32_t end, Cmp op, double rhs,
                          std::vector<uint32_t>* out) {
  switch (op) {
    case Cmp::kEq: CmpI64wIndexed<Cmp::kEq>(data, sel, begin, end, rhs, out); break;
    case Cmp::kNe: CmpI64wIndexed<Cmp::kNe>(data, sel, begin, end, rhs, out); break;
    case Cmp::kLt: CmpI64wIndexed<Cmp::kLt>(data, sel, begin, end, rhs, out); break;
    case Cmp::kLe: CmpI64wIndexed<Cmp::kLe>(data, sel, begin, end, rhs, out); break;
    case Cmp::kGt: CmpI64wIndexed<Cmp::kGt>(data, sel, begin, end, rhs, out); break;
    case Cmp::kGe: CmpI64wIndexed<Cmp::kGe>(data, sel, begin, end, rhs, out); break;
  }
}

void FilterRangeI64wDense(const int64_t* data, uint32_t begin, uint32_t end,
                          double lo, double hi, std::vector<uint32_t>* out) {
  const uint32_t n = end - begin;
  size_t base = 0;
  uint32_t* dst = GrowFor(out, n, &base);
  size_t cnt = 0;
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  __m128i vrows = _mm_setr_epi32(
      static_cast<int>(begin), static_cast<int>(begin + 1),
      static_cast<int>(begin + 2), static_cast<int>(begin + 3));
  const __m128i vinc = _mm_set1_epi32(4);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = WidenI64(data + begin + i);
    const __m256d m = _mm256_and_pd(_mm256_cmp_pd(v, vlo, _CMP_GE_OQ),
                                    _mm256_cmp_pd(v, vhi, _CMP_LE_OQ));
    cnt = Emit4(dst, cnt, vrows, _mm256_movemask_pd(m));
    vrows = _mm_add_epi32(vrows, vinc);
  }
  for (; i < n; ++i) {
    const double v = static_cast<double>(data[begin + i]);
    if (v >= lo && v <= hi) dst[cnt++] = begin + i;
  }
  out->resize(base + cnt);
}

void FilterRangeI64wIndexed(const int64_t* data, const uint32_t* sel,
                            uint32_t begin, uint32_t end, double lo,
                            double hi, std::vector<uint32_t>* out) {
  const uint32_t n = end - begin;
  size_t base = 0;
  uint32_t* dst = GrowFor(out, n, &base);
  size_t cnt = 0;
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vrows = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(sel + begin + i));
    const __m256d v = WidenI64At(data, sel + begin + i);
    const __m256d m = _mm256_and_pd(_mm256_cmp_pd(v, vlo, _CMP_GE_OQ),
                                    _mm256_cmp_pd(v, vhi, _CMP_LE_OQ));
    cnt = Emit4(dst, cnt, vrows, _mm256_movemask_pd(m));
  }
  for (; i < n; ++i) {
    const uint32_t row = sel[begin + i];
    const double v = static_cast<double>(data[row]);
    if (v >= lo && v <= hi) dst[cnt++] = row;
  }
  out->resize(base + cnt);
}

// --- exact int64 equality ---------------------------------------------------

void FilterEqI64Dense(const int64_t* data, uint32_t begin, uint32_t end,
                      int64_t want, std::vector<uint32_t>* out) {
  const uint32_t n = end - begin;
  size_t base = 0;
  uint32_t* dst = GrowFor(out, n, &base);
  size_t cnt = 0;
  const __m256i vwant = _mm256_set1_epi64x(want);
  __m128i vrows = _mm_setr_epi32(
      static_cast<int>(begin), static_cast<int>(begin + 1),
      static_cast<int>(begin + 2), static_cast<int>(begin + 3));
  const __m128i vinc = _mm_set1_epi32(4);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(data + begin + i));
    const int mask = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, vwant)));
    cnt = Emit4(dst, cnt, vrows, mask);
    vrows = _mm_add_epi32(vrows, vinc);
  }
  for (; i < n; ++i) {
    if (data[begin + i] == want) dst[cnt++] = begin + i;
  }
  out->resize(base + cnt);
}

void FilterEqI64Indexed(const int64_t* data, const uint32_t* sel,
                        uint32_t begin, uint32_t end, int64_t want,
                        std::vector<uint32_t>* out) {
  if (!GatherSafe(sel, begin, end)) {
    ScalarOps().filter_eq_i64_indexed(data, sel, begin, end, want, out);
    return;
  }
  const uint32_t n = end - begin;
  size_t base = 0;
  uint32_t* dst = GrowFor(out, n, &base);
  size_t cnt = 0;
  const __m256i vwant = _mm256_set1_epi64x(want);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vrows = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(sel + begin + i));
    const __m256i v = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(data), vrows, 8);
    const int mask = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, vwant)));
    cnt = Emit4(dst, cnt, vrows, mask);
  }
  for (; i < n; ++i) {
    const uint32_t row = sel[begin + i];
    if (data[row] == want) dst[cnt++] = row;
  }
  out->resize(base + cnt);
}

// --- dictionary-code equality (8 lanes of int32) ----------------------------

void FilterEqI32Dense(const int32_t* codes, uint32_t begin, uint32_t end,
                      int32_t want, bool keep_equal,
                      std::vector<uint32_t>* out) {
  const uint32_t n = end - begin;
  size_t base = 0;
  uint32_t* dst = GrowFor(out, n, &base);
  size_t cnt = 0;
  const __m256i vwant = _mm256_set1_epi32(want);
  const int flip = keep_equal ? 0 : 0xFF;
  __m256i vrows = _mm256_setr_epi32(
      static_cast<int>(begin), static_cast<int>(begin + 1),
      static_cast<int>(begin + 2), static_cast<int>(begin + 3),
      static_cast<int>(begin + 4), static_cast<int>(begin + 5),
      static_cast<int>(begin + 6), static_cast<int>(begin + 7));
  const __m256i vinc = _mm256_set1_epi32(8);
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(codes + begin + i));
    const int mask = _mm256_movemask_ps(
                         _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, vwant))) ^
                     flip;
    cnt = Emit8(dst, cnt, vrows, mask);
    vrows = _mm256_add_epi32(vrows, vinc);
  }
  for (; i < n; ++i) {
    if ((codes[begin + i] == want) == keep_equal) dst[cnt++] = begin + i;
  }
  out->resize(base + cnt);
}

void FilterEqI32Indexed(const int32_t* codes, const uint32_t* sel,
                        uint32_t begin, uint32_t end, int32_t want,
                        bool keep_equal, std::vector<uint32_t>* out) {
  if (!GatherSafe(sel, begin, end)) {
    ScalarOps().filter_eq_i32_indexed(codes, sel, begin, end, want,
                                      keep_equal, out);
    return;
  }
  const uint32_t n = end - begin;
  size_t base = 0;
  uint32_t* dst = GrowFor(out, n, &base);
  size_t cnt = 0;
  const __m256i vwant = _mm256_set1_epi32(want);
  const int flip = keep_equal ? 0 : 0xFF;
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vrows = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sel + begin + i));
    const __m256i v = _mm256_i32gather_epi32(codes, vrows, 4);
    const int mask = _mm256_movemask_ps(
                         _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, vwant))) ^
                     flip;
    cnt = Emit8(dst, cnt, vrows, mask);
  }
  for (; i < n; ++i) {
    const uint32_t row = sel[begin + i];
    if ((codes[row] == want) == keep_equal) dst[cnt++] = row;
  }
  out->resize(base + cnt);
}

// --- gathers ----------------------------------------------------------------

void GatherF64(const double* data, const uint32_t* rows, size_t n,
               double* out) {
  size_t i = 0;
  if (n >= 4 && rows[n - 1] < 0x80000000u) {
    for (; i + 4 <= n; i += 4) {
      const __m128i vrows = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(rows + i));
      _mm256_storeu_pd(out + i, _mm256_i32gather_pd(data, vrows, 8));
    }
  }
  for (; i < n; ++i) out[i] = data[rows[i]];
}

void GatherI64ToF64(const int64_t* data, const uint32_t* rows, size_t n,
                    double* out) {
  // int64→double has no AVX2 form; the gather of the int64s still
  // vectorizes the loads, the converts stay scalar.
  size_t i = 0;
  if (n >= 4 && rows[n - 1] < 0x80000000u) {
    alignas(32) int64_t tmp[4];
    for (; i + 4 <= n; i += 4) {
      const __m128i vrows = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(rows + i));
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp),
                         _mm256_i32gather_epi64(
                             reinterpret_cast<const long long*>(data), vrows,
                             8));
      out[i] = static_cast<double>(tmp[0]);
      out[i + 1] = static_cast<double>(tmp[1]);
      out[i + 2] = static_cast<double>(tmp[2]);
      out[i + 3] = static_cast<double>(tmp[3]);
    }
  }
  for (; i < n; ++i) out[i] = static_cast<double>(data[rows[i]]);
}

// --- FlatIdTable probe scan -------------------------------------------------

SlotScan8 ScanSlots8(const uint64_t* hashes, const uint32_t* ids,
                     uint64_t target_hash, uint32_t empty_id) {
  const __m256i vtarget = _mm256_set1_epi64x(
      static_cast<long long>(target_hash));
  const __m256i h0 = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(hashes));
  const __m256i h1 = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(hashes + 4));
  const int m0 = _mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_cmpeq_epi64(h0, vtarget)));
  const int m1 = _mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_cmpeq_epi64(h1, vtarget)));
  const __m256i vids = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(ids));
  const int e = _mm256_movemask_ps(_mm256_castsi256_ps(
      _mm256_cmpeq_epi32(vids, _mm256_set1_epi32(
                                   static_cast<int>(empty_id)))));
  SlotScan8 scan;
  scan.match = static_cast<uint32_t>(m0 | (m1 << 4));
  scan.empty = static_cast<uint32_t>(e);
  return scan;
}

// --- zone bounds -----------------------------------------------------------

void MinMaxI64(const int64_t* data, size_t n, int64_t* lo, int64_t* hi) {
  int64_t l = data[0];
  int64_t h = data[0];
  size_t i = 0;
  if (n >= 8) {
    // Two vectors per step, so the compare-and-blend chains overlap.
    __m256i lo0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data));
    __m256i lo1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + 4));
    __m256i hi0 = lo0;
    __m256i hi1 = lo1;
    for (i = 8; i + 8 <= n; i += 8) {
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
      const __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i + 4));
      lo0 = _mm256_blendv_epi8(lo0, a, _mm256_cmpgt_epi64(lo0, a));
      lo1 = _mm256_blendv_epi8(lo1, b, _mm256_cmpgt_epi64(lo1, b));
      hi0 = _mm256_blendv_epi8(hi0, a, _mm256_cmpgt_epi64(a, hi0));
      hi1 = _mm256_blendv_epi8(hi1, b, _mm256_cmpgt_epi64(b, hi1));
    }
    alignas(32) int64_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                       _mm256_blendv_epi8(lo0, lo1,
                                          _mm256_cmpgt_epi64(lo0, lo1)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4),
                       _mm256_blendv_epi8(hi0, hi1,
                                          _mm256_cmpgt_epi64(hi1, hi0)));
    for (size_t k = 0; k < 4; ++k) {
      l = lanes[k] < l ? lanes[k] : l;
      h = lanes[4 + k] > h ? lanes[4 + k] : h;
    }
  }
  for (; i < n; ++i) {
    l = data[i] < l ? data[i] : l;
    h = data[i] > h ? data[i] : h;
  }
  *lo = l;
  *hi = h;
}

bool MinMaxF64(const double* data, size_t n, double* lo, double* hi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // _mm256_min_pd(v, m) is v < m ? v : m, the scalar select: a NaN in v
  // keeps m. An unordered compare of the step's two vectors flags a NaN
  // in either.
  __m256d lo0 = _mm256_set1_pd(kInf);
  __m256d lo1 = lo0;
  __m256d hi0 = _mm256_set1_pd(-kInf);
  __m256d hi1 = hi0;
  __m256d nan = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a = _mm256_loadu_pd(data + i);
    const __m256d b = _mm256_loadu_pd(data + i + 4);
    lo0 = _mm256_min_pd(a, lo0);
    lo1 = _mm256_min_pd(b, lo1);
    hi0 = _mm256_max_pd(a, hi0);
    hi1 = _mm256_max_pd(b, hi1);
    nan = _mm256_or_pd(nan, _mm256_cmp_pd(a, b, _CMP_UNORD_Q));
  }
  alignas(32) double lanes[8];
  _mm256_store_pd(lanes, _mm256_min_pd(lo0, lo1));
  _mm256_store_pd(lanes + 4, _mm256_max_pd(hi0, hi1));
  bool unordered = _mm256_movemask_pd(nan) != 0;
  double l = kInf;
  double h = -kInf;
  for (size_t k = 0; k < 4; ++k) {
    l = lanes[k] < l ? lanes[k] : l;
    h = lanes[4 + k] > h ? lanes[4 + k] : h;
  }
  for (; i < n; ++i) {
    const double v = data[i];
    l = v < l ? v : l;
    h = v > h ? v : h;
    unordered = unordered || v != v;
  }
  *lo = l == 0.0 ? 0.0 : l;
  *hi = h == 0.0 ? 0.0 : h;
  return unordered;
}

constexpr Ops kAvx2Ops = {
    FilterCmpF64Dense,    FilterCmpF64Indexed,
    FilterRangeF64Dense,  FilterRangeF64Indexed,
    FilterCmpI64wDense,   FilterCmpI64wIndexed,
    FilterRangeI64wDense, FilterRangeI64wIndexed,
    FilterEqI64Dense,     FilterEqI64Indexed,
    FilterEqI32Dense,     FilterEqI32Indexed,
    GatherF64,            GatherI64ToF64,
    ScanSlots8,           MinMaxI64,
    MinMaxF64,
};

}  // namespace

const Ops* Avx2Ops() { return &kAvx2Ops; }

}  // namespace detail
}  // namespace congress::simd

#endif  // defined(__x86_64__) || defined(_M_X64)
