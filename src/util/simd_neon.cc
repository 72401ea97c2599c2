// NEON backend for the simd::Ops dispatch table (aarch64, where NEON is
// baseline — no special compile flags needed). The vector width is 2
// double lanes / 4 int32 lanes, so the emphasis is correctness and the
// cheap wins (compare masks, folds, the probe scan); the int64-widening
// and gather entries stay scalar, where NEON has no edge.
//
// Selection identity with the scalar reference in simd.cc is the
// contract, exactly as for the AVX2 backend.

#include "util/simd.h"

#if defined(__aarch64__) && defined(__ARM_NEON) && \
    !defined(CONGRESS_SIMD_DISABLED)

#include <arm_neon.h>

namespace congress::simd {
namespace detail {

namespace {

inline uint64x2_t CmpLanes(Cmp op, float64x2_t v, float64x2_t rhs) {
  switch (op) {
    case Cmp::kEq:
      return vceqq_f64(v, rhs);
    case Cmp::kNe:
      // NaN != x is true, and vceqq is false on NaN, so negation is right.
      return veorq_u64(vceqq_f64(v, rhs), vdupq_n_u64(~0ull));
    case Cmp::kLt:
      return vcltq_f64(v, rhs);
    case Cmp::kLe:
      return vcleq_f64(v, rhs);
    case Cmp::kGt:
      return vcgtq_f64(v, rhs);
    case Cmp::kGe:
      return vcgeq_f64(v, rhs);
  }
  return vdupq_n_u64(0);
}

void FilterCmpF64Dense(const double* data, uint32_t begin, uint32_t end,
                       Cmp op, double rhs, std::vector<uint32_t>* out) {
  const float64x2_t vrhs = vdupq_n_f64(rhs);
  uint32_t row = begin;
  for (; row + 2 <= end; row += 2) {
    const uint64x2_t m = CmpLanes(op, vld1q_f64(data + row), vrhs);
    if (vgetq_lane_u64(m, 0)) out->push_back(row);
    if (vgetq_lane_u64(m, 1)) out->push_back(row + 1);
  }
  for (; row < end; ++row) {
    if (CmpApply(op, data[row], rhs)) out->push_back(row);
  }
}

void FilterCmpF64Indexed(const double* data, const uint32_t* sel,
                         uint32_t begin, uint32_t end, Cmp op, double rhs,
                         std::vector<uint32_t>* out) {
  const float64x2_t vrhs = vdupq_n_f64(rhs);
  uint32_t i = begin;
  for (; i + 2 <= end; i += 2) {
    const uint32_t r0 = sel[i];
    const uint32_t r1 = sel[i + 1];
    float64x2_t v = vdupq_n_f64(data[r0]);
    v = vsetq_lane_f64(data[r1], v, 1);
    const uint64x2_t m = CmpLanes(op, v, vrhs);
    if (vgetq_lane_u64(m, 0)) out->push_back(r0);
    if (vgetq_lane_u64(m, 1)) out->push_back(r1);
  }
  for (; i < end; ++i) {
    const uint32_t row = sel[i];
    if (CmpApply(op, data[row], rhs)) out->push_back(row);
  }
}

void FilterRangeF64Dense(const double* data, uint32_t begin, uint32_t end,
                         double lo, double hi, std::vector<uint32_t>* out) {
  const float64x2_t vlo = vdupq_n_f64(lo);
  const float64x2_t vhi = vdupq_n_f64(hi);
  uint32_t row = begin;
  for (; row + 2 <= end; row += 2) {
    const float64x2_t v = vld1q_f64(data + row);
    const uint64x2_t m = vandq_u64(vcgeq_f64(v, vlo), vcleq_f64(v, vhi));
    if (vgetq_lane_u64(m, 0)) out->push_back(row);
    if (vgetq_lane_u64(m, 1)) out->push_back(row + 1);
  }
  for (; row < end; ++row) {
    const double v = data[row];
    if (v >= lo && v <= hi) out->push_back(row);
  }
}

void FilterRangeF64Indexed(const double* data, const uint32_t* sel,
                           uint32_t begin, uint32_t end, double lo, double hi,
                           std::vector<uint32_t>* out) {
  const float64x2_t vlo = vdupq_n_f64(lo);
  const float64x2_t vhi = vdupq_n_f64(hi);
  uint32_t i = begin;
  for (; i + 2 <= end; i += 2) {
    const uint32_t r0 = sel[i];
    const uint32_t r1 = sel[i + 1];
    float64x2_t v = vdupq_n_f64(data[r0]);
    v = vsetq_lane_f64(data[r1], v, 1);
    const uint64x2_t m = vandq_u64(vcgeq_f64(v, vlo), vcleq_f64(v, vhi));
    if (vgetq_lane_u64(m, 0)) out->push_back(r0);
    if (vgetq_lane_u64(m, 1)) out->push_back(r1);
  }
  for (; i < end; ++i) {
    const uint32_t row = sel[i];
    const double v = data[row];
    if (v >= lo && v <= hi) out->push_back(row);
  }
}

void FilterEqI32Dense(const int32_t* codes, uint32_t begin, uint32_t end,
                      int32_t want, bool keep_equal,
                      std::vector<uint32_t>* out) {
  const int32x4_t vwant = vdupq_n_s32(want);
  const uint32x4_t vflip = vdupq_n_u32(keep_equal ? 0u : ~0u);
  uint32_t row = begin;
  for (; row + 4 <= end; row += 4) {
    const uint32x4_t m =
        veorq_u32(vceqq_s32(vld1q_s32(codes + row), vwant), vflip);
    if (vgetq_lane_u32(m, 0)) out->push_back(row);
    if (vgetq_lane_u32(m, 1)) out->push_back(row + 1);
    if (vgetq_lane_u32(m, 2)) out->push_back(row + 2);
    if (vgetq_lane_u32(m, 3)) out->push_back(row + 3);
  }
  for (; row < end; ++row) {
    if ((codes[row] == want) == keep_equal) out->push_back(row);
  }
}

void FilterEqI32Indexed(const int32_t* codes, const uint32_t* sel,
                        uint32_t begin, uint32_t end, int32_t want,
                        bool keep_equal, std::vector<uint32_t>* out) {
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t row = sel[i];
    if ((codes[row] == want) == keep_equal) out->push_back(row);
  }
}

SlotScan8 ScanSlots8(const uint64_t* hashes, const uint32_t* ids,
                     uint64_t target_hash, uint32_t empty_id) {
  const uint64x2_t vtarget = vdupq_n_u64(target_hash);
  SlotScan8 scan;
  for (uint32_t half = 0; half < 4; ++half) {
    const uint64x2_t m = vceqq_u64(vld1q_u64(hashes + half * 2), vtarget);
    if (vgetq_lane_u64(m, 0)) scan.match |= 1u << (half * 2);
    if (vgetq_lane_u64(m, 1)) scan.match |= 1u << (half * 2 + 1);
  }
  const uint32x4_t vempty = vdupq_n_u32(empty_id);
  for (uint32_t half = 0; half < 2; ++half) {
    const uint32x4_t m = vceqq_u32(vld1q_u32(ids + half * 4), vempty);
    if (vgetq_lane_u32(m, 0)) scan.empty |= 1u << (half * 4);
    if (vgetq_lane_u32(m, 1)) scan.empty |= 1u << (half * 4 + 1);
    if (vgetq_lane_u32(m, 2)) scan.empty |= 1u << (half * 4 + 2);
    if (vgetq_lane_u32(m, 3)) scan.empty |= 1u << (half * 4 + 3);
  }
  return scan;
}

}  // namespace

const Ops* NeonOps() {
  static const Ops ops = [] {
    Ops o = ScalarOps();  // int64 / gather entries keep the scalar impls.
    o.filter_cmp_f64_dense = FilterCmpF64Dense;
    o.filter_cmp_f64_indexed = FilterCmpF64Indexed;
    o.filter_range_f64_dense = FilterRangeF64Dense;
    o.filter_range_f64_indexed = FilterRangeF64Indexed;
    o.filter_eq_i32_dense = FilterEqI32Dense;
    o.filter_eq_i32_indexed = FilterEqI32Indexed;
    o.scan_slots8 = ScanSlots8;
    return o;
  }();
  return &ops;
}

}  // namespace detail
}  // namespace congress::simd

#endif  // aarch64 && __ARM_NEON && !CONGRESS_SIMD_DISABLED
