#include "util/simd.h"

#include <cstdlib>
#include <cstring>
#include <limits>

namespace congress::simd {

namespace detail {
// Defined in the per-ISA translation units (simd_avx2.cc / simd_neon.cc),
// which CMake only compiles on the matching architecture. The references
// below are guarded by the same preprocessor conditions, so no undefined
// symbol can be pulled in on a foreign architecture.
#if !defined(CONGRESS_SIMD_DISABLED)
#if defined(__x86_64__) || defined(_M_X64)
const Ops* Avx2Ops();
#elif defined(__aarch64__) && defined(__ARM_NEON)
const Ops* NeonOps();
#endif
#endif
}  // namespace detail

namespace {

// ---------------------------------------------------------------------------
// Scalar reference implementations. Every vector backend is checked against
// these (tests/util/simd_test.cc), and they are the active table when no
// vector ISA is available or CONGRESS_SIMD is off.
// ---------------------------------------------------------------------------

void ScalarFilterCmpF64Dense(const double* data, uint32_t begin, uint32_t end,
                             Cmp op, double rhs, std::vector<uint32_t>* out) {
  for (uint32_t row = begin; row < end; ++row) {
    if (CmpApply(op, data[row], rhs)) out->push_back(row);
  }
}

void ScalarFilterCmpF64Indexed(const double* data, const uint32_t* sel,
                               uint32_t begin, uint32_t end, Cmp op,
                               double rhs, std::vector<uint32_t>* out) {
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t row = sel[i];
    if (CmpApply(op, data[row], rhs)) out->push_back(row);
  }
}

void ScalarFilterRangeF64Dense(const double* data, uint32_t begin,
                               uint32_t end, double lo, double hi,
                               std::vector<uint32_t>* out) {
  for (uint32_t row = begin; row < end; ++row) {
    const double v = data[row];
    if (v >= lo && v <= hi) out->push_back(row);
  }
}

void ScalarFilterRangeF64Indexed(const double* data, const uint32_t* sel,
                                 uint32_t begin, uint32_t end, double lo,
                                 double hi, std::vector<uint32_t>* out) {
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t row = sel[i];
    const double v = data[row];
    if (v >= lo && v <= hi) out->push_back(row);
  }
}

void ScalarFilterCmpI64wDense(const int64_t* data, uint32_t begin,
                              uint32_t end, Cmp op, double rhs,
                              std::vector<uint32_t>* out) {
  for (uint32_t row = begin; row < end; ++row) {
    if (CmpApply(op, static_cast<double>(data[row]), rhs)) out->push_back(row);
  }
}

void ScalarFilterCmpI64wIndexed(const int64_t* data, const uint32_t* sel,
                                uint32_t begin, uint32_t end, Cmp op,
                                double rhs, std::vector<uint32_t>* out) {
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t row = sel[i];
    if (CmpApply(op, static_cast<double>(data[row]), rhs)) out->push_back(row);
  }
}

void ScalarFilterRangeI64wDense(const int64_t* data, uint32_t begin,
                                uint32_t end, double lo, double hi,
                                std::vector<uint32_t>* out) {
  for (uint32_t row = begin; row < end; ++row) {
    const double v = static_cast<double>(data[row]);
    if (v >= lo && v <= hi) out->push_back(row);
  }
}

void ScalarFilterRangeI64wIndexed(const int64_t* data, const uint32_t* sel,
                                  uint32_t begin, uint32_t end, double lo,
                                  double hi, std::vector<uint32_t>* out) {
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t row = sel[i];
    const double v = static_cast<double>(data[row]);
    if (v >= lo && v <= hi) out->push_back(row);
  }
}

void ScalarFilterEqI64Dense(const int64_t* data, uint32_t begin, uint32_t end,
                            int64_t want, std::vector<uint32_t>* out) {
  for (uint32_t row = begin; row < end; ++row) {
    if (data[row] == want) out->push_back(row);
  }
}

void ScalarFilterEqI64Indexed(const int64_t* data, const uint32_t* sel,
                              uint32_t begin, uint32_t end, int64_t want,
                              std::vector<uint32_t>* out) {
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t row = sel[i];
    if (data[row] == want) out->push_back(row);
  }
}

void ScalarFilterEqI32Dense(const int32_t* codes, uint32_t begin, uint32_t end,
                            int32_t want, bool keep_equal,
                            std::vector<uint32_t>* out) {
  for (uint32_t row = begin; row < end; ++row) {
    if ((codes[row] == want) == keep_equal) out->push_back(row);
  }
}

void ScalarFilterEqI32Indexed(const int32_t* codes, const uint32_t* sel,
                              uint32_t begin, uint32_t end, int32_t want,
                              bool keep_equal, std::vector<uint32_t>* out) {
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t row = sel[i];
    if ((codes[row] == want) == keep_equal) out->push_back(row);
  }
}

void ScalarGatherF64(const double* data, const uint32_t* rows, size_t n,
                     double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = data[rows[i]];
}

void ScalarGatherI64ToF64(const int64_t* data, const uint32_t* rows, size_t n,
                          double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(data[rows[i]]);
}

SlotScan8 ScalarScanSlots8(const uint64_t* hashes, const uint32_t* ids,
                           uint64_t target_hash, uint32_t empty_id) {
  SlotScan8 scan;
  for (uint32_t j = 0; j < 8; ++j) {
    if (hashes[j] == target_hash) scan.match |= 1u << j;
    if (ids[j] == empty_id) scan.empty |= 1u << j;
  }
  return scan;
}

/// Lanes of independent running bounds in the scalar min/max: one
/// compare-and-select chain per lane, so the loop is not latency-bound.
constexpr size_t kMinMaxLanes = 4;

void ScalarMinMaxI64(const int64_t* data, size_t n, int64_t* lo,
                     int64_t* hi) {
  int64_t l[kMinMaxLanes];
  int64_t h[kMinMaxLanes];
  for (size_t k = 0; k < kMinMaxLanes; ++k) l[k] = h[k] = data[0];
  size_t i = 0;
  for (; i + kMinMaxLanes <= n; i += kMinMaxLanes) {
    for (size_t k = 0; k < kMinMaxLanes; ++k) {
      const int64_t v = data[i + k];
      l[k] = v < l[k] ? v : l[k];
      h[k] = v > h[k] ? v : h[k];
    }
  }
  for (; i < n; ++i) {
    l[0] = data[i] < l[0] ? data[i] : l[0];
    h[0] = data[i] > h[0] ? data[i] : h[0];
  }
  for (size_t k = 1; k < kMinMaxLanes; ++k) {
    l[0] = l[k] < l[0] ? l[k] : l[0];
    h[0] = h[k] > h[0] ? h[k] : h[0];
  }
  *lo = l[0];
  *hi = h[0];
}

bool ScalarMinMaxF64(const double* data, size_t n, double* lo, double* hi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double l[kMinMaxLanes];
  double h[kMinMaxLanes];
  for (size_t k = 0; k < kMinMaxLanes; ++k) {
    l[k] = kInf;
    h[k] = -kInf;
  }
  size_t unordered = 0;
  size_t i = 0;
  for (; i + kMinMaxLanes <= n; i += kMinMaxLanes) {
    for (size_t k = 0; k < kMinMaxLanes; ++k) {
      const double v = data[i + k];
      l[k] = v < l[k] ? v : l[k];
      h[k] = v > h[k] ? v : h[k];
      unordered += v != v;
    }
  }
  for (; i < n; ++i) {
    const double v = data[i];
    l[0] = v < l[0] ? v : l[0];
    h[0] = v > h[0] ? v : h[0];
    unordered += v != v;
  }
  for (size_t k = 1; k < kMinMaxLanes; ++k) {
    l[0] = l[k] < l[0] ? l[k] : l[0];
    h[0] = h[k] > h[0] ? h[k] : h[0];
  }
  *lo = l[0] == 0.0 ? 0.0 : l[0];
  *hi = h[0] == 0.0 ? 0.0 : h[0];
  return unordered > 0;
}

constexpr Ops kScalarOps = {
    ScalarFilterCmpF64Dense,   ScalarFilterCmpF64Indexed,
    ScalarFilterRangeF64Dense, ScalarFilterRangeF64Indexed,
    ScalarFilterCmpI64wDense,  ScalarFilterCmpI64wIndexed,
    ScalarFilterRangeI64wDense, ScalarFilterRangeI64wIndexed,
    ScalarFilterEqI64Dense,    ScalarFilterEqI64Indexed,
    ScalarFilterEqI32Dense,    ScalarFilterEqI32Indexed,
    ScalarGatherF64,           ScalarGatherI64ToF64,
    ScalarScanSlots8,          ScalarMinMaxI64,
    ScalarMinMaxF64,
};

struct Resolved {
  const Ops* ops;
  const char* name;
};

Resolved Resolve() {
#if !defined(CONGRESS_SIMD_DISABLED)
  if (!DisabledByEnv()) {
#if defined(__x86_64__) || defined(_M_X64)
    if (__builtin_cpu_supports("avx2")) {
      return {detail::Avx2Ops(), "avx2"};
    }
#elif defined(__aarch64__) && defined(__ARM_NEON)
    return {detail::NeonOps(), "neon"};
#endif
  }
#endif
  return {&kScalarOps, "scalar"};
}

const Resolved& Active_() {
  static const Resolved resolved = Resolve();
  return resolved;
}

}  // namespace

// CONGRESS_SIMD=OFF|off|0|scalar forces the scalar table at startup — the
// runtime half of the parity-testing knob (the compile-time half is the
// -DCONGRESS_SIMD=OFF build, which defines CONGRESS_SIMD_DISABLED).
bool DisabledByEnv() {
  const char* env = std::getenv("CONGRESS_SIMD");
  if (env == nullptr) return false;
  return std::strcmp(env, "OFF") == 0 || std::strcmp(env, "off") == 0 ||
         std::strcmp(env, "0") == 0 || std::strcmp(env, "scalar") == 0;
}

const Ops& Active() { return *Active_().ops; }

const Ops& ScalarOps() { return kScalarOps; }

bool Enabled() { return Active_().ops != &kScalarOps; }

const char* LevelName() { return Active_().name; }

}  // namespace congress::simd
