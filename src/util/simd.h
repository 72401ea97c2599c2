#ifndef CONGRESS_UTIL_SIMD_H_
#define CONGRESS_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace congress::simd {

/// Comparison operators shared by the SIMD filter kernels. The semantics
/// are exactly those of the C++ operators on double (NaN compares false
/// under everything except kNe), so a SIMD kernel and the scalar loop it
/// replaces select identical rows.
enum class Cmp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// Scalar reference semantics for `Cmp` — the contract every SIMD
/// implementation must reproduce bit-for-bit (selection identity).
inline bool CmpApply(Cmp op, double v, double rhs) {
  switch (op) {
    case Cmp::kEq:
      return v == rhs;
    case Cmp::kNe:
      return v != rhs;
    case Cmp::kLt:
      return v < rhs;
    case Cmp::kLe:
      return v <= rhs;
    case Cmp::kGt:
      return v > rhs;
    case Cmp::kGe:
      return v >= rhs;
  }
  return false;
}

/// Result of classifying 8 consecutive open-addressing slots in one step:
/// bit j of `match` is set when hashes[j] equals the probe hash, bit j of
/// `empty` when ids[j] is the empty sentinel. Callers walk the bits in
/// ascending order, so probe semantics match the one-slot-at-a-time loop.
struct SlotScan8 {
  uint32_t match = 0;
  uint32_t empty = 0;
};

/// Dispatch table for the data-parallel primitives. One implementation is
/// selected per process (AVX2 / NEON / scalar); every entry has identical
/// observable behavior, differing only in speed — the `vectorized` prop
/// config and the kernel parity tests hold them to that.
///
/// Filter kernels append matching row indices, in ascending order, to
/// `out` — never clearing it, so AND chains compose. "Dense" variants
/// visit rows [begin, end); "indexed" variants visit sel[begin..end), the
/// selection-vector slice form used for AND chaining.
struct Ops {
  // double column vs. constant.
  void (*filter_cmp_f64_dense)(const double* data, uint32_t begin,
                               uint32_t end, Cmp op, double rhs,
                               std::vector<uint32_t>* out);
  void (*filter_cmp_f64_indexed)(const double* data, const uint32_t* sel,
                                 uint32_t begin, uint32_t end, Cmp op,
                                 double rhs, std::vector<uint32_t>* out);
  // double column in [lo, hi] (v >= lo && v <= hi; NaN never matches).
  void (*filter_range_f64_dense)(const double* data, uint32_t begin,
                                 uint32_t end, double lo, double hi,
                                 std::vector<uint32_t>* out);
  void (*filter_range_f64_indexed)(const double* data, const uint32_t* sel,
                                   uint32_t begin, uint32_t end, double lo,
                                   double hi, std::vector<uint32_t>* out);
  // int64 column widened to double per row, then compared — the numeric
  // predicate semantics (`cmp(static_cast<double>(data[row]))`).
  void (*filter_cmp_i64w_dense)(const int64_t* data, uint32_t begin,
                                uint32_t end, Cmp op, double rhs,
                                std::vector<uint32_t>* out);
  void (*filter_cmp_i64w_indexed)(const int64_t* data, const uint32_t* sel,
                                  uint32_t begin, uint32_t end, Cmp op,
                                  double rhs, std::vector<uint32_t>* out);
  void (*filter_range_i64w_dense)(const int64_t* data, uint32_t begin,
                                  uint32_t end, double lo, double hi,
                                  std::vector<uint32_t>* out);
  void (*filter_range_i64w_indexed)(const int64_t* data, const uint32_t* sel,
                                    uint32_t begin, uint32_t end, double lo,
                                    double hi, std::vector<uint32_t>* out);
  // Exact int64 equality (EqualsPredicate on an int64 column — no
  // widening, so values beyond 2^53 compare exactly).
  void (*filter_eq_i64_dense)(const int64_t* data, uint32_t begin,
                              uint32_t end, int64_t want,
                              std::vector<uint32_t>* out);
  void (*filter_eq_i64_indexed)(const int64_t* data, const uint32_t* sel,
                                uint32_t begin, uint32_t end, int64_t want,
                                std::vector<uint32_t>* out);
  // Dictionary-code equality: keep rows whose int32 code == want when
  // `keep_equal`, else the rows whose code differs.
  void (*filter_eq_i32_dense)(const int32_t* codes, uint32_t begin,
                              uint32_t end, int32_t want, bool keep_equal,
                              std::vector<uint32_t>* out);
  void (*filter_eq_i32_indexed)(const int32_t* codes, const uint32_t* sel,
                                uint32_t begin, uint32_t end, int32_t want,
                                bool keep_equal, std::vector<uint32_t>* out);
  // out[i] = data[rows[i]].
  void (*gather_f64)(const double* data, const uint32_t* rows, size_t n,
                     double* out);
  // out[i] = static_cast<double>(data[rows[i]]).
  void (*gather_i64_to_f64)(const int64_t* data, const uint32_t* rows,
                            size_t n, double* out);
  // Classifies slots [i, i+8) of a FlatIdTable probe in one step.
  SlotScan8 (*scan_slots8)(const uint64_t* hashes, const uint32_t* ids,
                           uint64_t target_hash, uint32_t empty_id);
  // Least and greatest of data[0..n), n > 0, into *lo and *hi (zone maps).
  void (*minmax_i64)(const int64_t* data, size_t n, int64_t* lo,
                     int64_t* hi);
  // Double form: a NaN never becomes a bound, and the return value says
  // whether data[0..n) holds one. A zero bound is +0.0 whatever the signs
  // of the zeros; with no ordered cell *lo is +inf and *hi -inf.
  bool (*minmax_f64)(const double* data, size_t n, double* lo, double* hi);
};

/// The process-wide dispatch table, resolved once on first use:
/// compile-time ISA ∩ runtime CPU support ∩ the CONGRESS_SIMD environment
/// knob (`CONGRESS_SIMD=OFF` forces scalar — the parity-testing override;
/// a `-DCONGRESS_SIMD=OFF` build hard-disables at compile time).
const Ops& Active();

/// The pure-scalar table, always available — the reference side of every
/// SIMD/scalar bit-identity test.
const Ops& ScalarOps();

/// True when Active() is a vector implementation (not scalar).
bool Enabled();

/// "avx2", "neon", or "scalar" — whatever Active() resolved to.
const char* LevelName();

/// True when the CONGRESS_SIMD environment knob (OFF|off|0|scalar) asks
/// for the portable code paths. Read by every runtime ISA dispatch — this
/// table and util/crc32c — when it resolves.
bool DisabledByEnv();

}  // namespace congress::simd

#endif  // CONGRESS_UTIL_SIMD_H_
