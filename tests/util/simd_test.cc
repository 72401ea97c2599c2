// SIMD/scalar bit-identity tests: every entry of the simd::Ops dispatch
// table must produce byte-identical output to the scalar reference for
// every input — including the edge lanes a vector implementation gets
// wrong first: tails shorter than the vector width, NaN and signed-zero
// payloads, all-false / all-true selections, and empty batches. On a
// machine without a vector backend (or with CONGRESS_SIMD=OFF) Active()
// is the scalar table and the comparisons are trivially true; the CI
// matrix runs both ways.

#include "util/simd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace congress {
namespace {

using simd::Cmp;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Deterministic value stream mixing ordinary values with the payloads
// vector lanes mishandle: NaN, ±0.0, ±inf, and exact-compare hits.
std::vector<double> EdgeDoubles(size_t n) {
  const double specials[] = {0.0,  -0.0, 1.5,  kNaN, -3.25, 42.0,
                             kInf, -kInf, 42.0, 7.0,  kNaN,  -1.0};
  std::vector<double> v(n);
  uint64_t s = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    if (i % 3 == 0) {
      v[i] = specials[(s >> 33) % (sizeof(specials) / sizeof(specials[0]))];
    } else {
      v[i] = static_cast<double>(static_cast<int64_t>(s >> 40)) / 16.0 - 400.0;
    }
  }
  return v;
}

std::vector<int64_t> EdgeInt64s(size_t n) {
  // Includes values beyond 2^53 where double widening collapses
  // neighbors — exercised identically by both sides.
  const int64_t specials[] = {0,  -1, 42, (1ll << 53) + 1, -(1ll << 53) - 1,
                              42, 7,  1000000007};
  std::vector<int64_t> v(n);
  uint64_t s = 0xDEADBEEFCAFEF00Dull;
  for (size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    if (i % 4 == 0) {
      v[i] = specials[(s >> 33) % (sizeof(specials) / sizeof(specials[0]))];
    } else {
      v[i] = static_cast<int64_t>(s >> 40) - (1 << 23);
    }
  }
  return v;
}

// Sizes straddling every vector width and its tails, plus empty.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 100, 257};

const Cmp kAllCmps[] = {Cmp::kEq, Cmp::kNe, Cmp::kLt,
                        Cmp::kLe, Cmp::kGt, Cmp::kGe};

// Selection slices over [0, n): empty, singleton, everything, and a
// strided subset (ascending, as the kernel contract requires).
std::vector<std::vector<uint32_t>> Selections(size_t n) {
  std::vector<std::vector<uint32_t>> sels;
  sels.push_back({});  // all-false upstream filter
  std::vector<uint32_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
  sels.push_back(all);  // all-true upstream filter
  if (n > 0) sels.push_back({static_cast<uint32_t>(n - 1)});
  std::vector<uint32_t> strided;
  for (size_t i = 0; i < n; i += 3) strided.push_back(static_cast<uint32_t>(i));
  sels.push_back(strided);
  return sels;
}

TEST(SimdParity, FilterCmpF64) {
  const simd::Ops& a = simd::Active();
  const simd::Ops& s = simd::ScalarOps();
  const double rhss[] = {0.0, -0.0, 42.0, kNaN, kInf};
  for (size_t n : kSizes) {
    std::vector<double> data = EdgeDoubles(n);
    for (Cmp op : kAllCmps) {
      for (double rhs : rhss) {
        std::vector<uint32_t> got = {999};  // append, never clear
        std::vector<uint32_t> want = {999};
        a.filter_cmp_f64_dense(data.data(), 0, static_cast<uint32_t>(n), op,
                               rhs, &got);
        s.filter_cmp_f64_dense(data.data(), 0, static_cast<uint32_t>(n), op,
                               rhs, &want);
        EXPECT_EQ(got, want) << "dense n=" << n << " op=" << int(op);
        for (const auto& sel : Selections(n)) {
          got.assign({999});
          want.assign({999});
          a.filter_cmp_f64_indexed(data.data(), sel.data(), 0,
                                   static_cast<uint32_t>(sel.size()), op, rhs,
                                   &got);
          s.filter_cmp_f64_indexed(data.data(), sel.data(), 0,
                                   static_cast<uint32_t>(sel.size()), op, rhs,
                                   &want);
          EXPECT_EQ(got, want)
              << "indexed n=" << n << " sel=" << sel.size() << " op=" << int(op);
        }
      }
    }
  }
}

TEST(SimdParity, FilterRangeF64) {
  const simd::Ops& a = simd::Active();
  const simd::Ops& s = simd::ScalarOps();
  const std::pair<double, double> ranges[] = {
      {-10.0, 10.0}, {0.0, 0.0}, {-0.0, 0.0}, {kNaN, kNaN},
      {10.0, -10.0},  // inverted: nothing matches
      {-kInf, kInf}};
  for (size_t n : kSizes) {
    std::vector<double> data = EdgeDoubles(n);
    for (auto [lo, hi] : ranges) {
      std::vector<uint32_t> got, want;
      a.filter_range_f64_dense(data.data(), 0, static_cast<uint32_t>(n), lo,
                               hi, &got);
      s.filter_range_f64_dense(data.data(), 0, static_cast<uint32_t>(n), lo,
                               hi, &want);
      EXPECT_EQ(got, want) << "dense n=" << n << " [" << lo << "," << hi << "]";
      for (const auto& sel : Selections(n)) {
        got.clear();
        want.clear();
        a.filter_range_f64_indexed(data.data(), sel.data(), 0,
                                   static_cast<uint32_t>(sel.size()), lo, hi,
                                   &got);
        s.filter_range_f64_indexed(data.data(), sel.data(), 0,
                                   static_cast<uint32_t>(sel.size()), lo, hi,
                                   &want);
        EXPECT_EQ(got, want) << "indexed n=" << n << " sel=" << sel.size();
      }
    }
  }
}

TEST(SimdParity, FilterCmpI64Widened) {
  const simd::Ops& a = simd::Active();
  const simd::Ops& s = simd::ScalarOps();
  const double rhss[] = {0.0, 42.0, 9.007199254740993e15, kNaN};
  for (size_t n : kSizes) {
    std::vector<int64_t> data = EdgeInt64s(n);
    for (Cmp op : kAllCmps) {
      for (double rhs : rhss) {
        std::vector<uint32_t> got, want;
        a.filter_cmp_i64w_dense(data.data(), 0, static_cast<uint32_t>(n), op,
                                rhs, &got);
        s.filter_cmp_i64w_dense(data.data(), 0, static_cast<uint32_t>(n), op,
                                rhs, &want);
        EXPECT_EQ(got, want) << "dense n=" << n << " op=" << int(op);
        for (const auto& sel : Selections(n)) {
          got.clear();
          want.clear();
          a.filter_cmp_i64w_indexed(data.data(), sel.data(), 0,
                                    static_cast<uint32_t>(sel.size()), op, rhs,
                                    &got);
          s.filter_cmp_i64w_indexed(data.data(), sel.data(), 0,
                                    static_cast<uint32_t>(sel.size()), op, rhs,
                                    &want);
          EXPECT_EQ(got, want) << "indexed n=" << n;
        }
      }
    }
  }
}

TEST(SimdParity, FilterRangeI64Widened) {
  const simd::Ops& a = simd::Active();
  const simd::Ops& s = simd::ScalarOps();
  for (size_t n : kSizes) {
    std::vector<int64_t> data = EdgeInt64s(n);
    const std::pair<double, double> ranges[] = {
        {-100.0, 100.0}, {42.0, 42.0}, {100.0, -100.0}, {-kInf, kInf}};
    for (auto [lo, hi] : ranges) {
      std::vector<uint32_t> got, want;
      a.filter_range_i64w_dense(data.data(), 0, static_cast<uint32_t>(n), lo,
                                hi, &got);
      s.filter_range_i64w_dense(data.data(), 0, static_cast<uint32_t>(n), lo,
                                hi, &want);
      EXPECT_EQ(got, want) << "dense n=" << n;
      for (const auto& sel : Selections(n)) {
        got.clear();
        want.clear();
        a.filter_range_i64w_indexed(data.data(), sel.data(), 0,
                                    static_cast<uint32_t>(sel.size()), lo, hi,
                                    &got);
        s.filter_range_i64w_indexed(data.data(), sel.data(), 0,
                                    static_cast<uint32_t>(sel.size()), lo, hi,
                                    &want);
        EXPECT_EQ(got, want) << "indexed n=" << n;
      }
    }
  }
}

TEST(SimdParity, FilterEqI64Exact) {
  const simd::Ops& a = simd::Active();
  const simd::Ops& s = simd::ScalarOps();
  // (1<<53)+1 is indistinguishable from 1<<53 after double widening;
  // the exact kernel must still tell them apart.
  const int64_t wants[] = {42, (1ll << 53) + 1, 0, -123456789};
  for (size_t n : kSizes) {
    std::vector<int64_t> data = EdgeInt64s(n);
    for (int64_t want_v : wants) {
      std::vector<uint32_t> got, want;
      a.filter_eq_i64_dense(data.data(), 0, static_cast<uint32_t>(n), want_v,
                            &got);
      s.filter_eq_i64_dense(data.data(), 0, static_cast<uint32_t>(n), want_v,
                            &want);
      EXPECT_EQ(got, want) << "dense n=" << n << " want=" << want_v;
      for (const auto& sel : Selections(n)) {
        got.clear();
        want.clear();
        a.filter_eq_i64_indexed(data.data(), sel.data(), 0,
                                static_cast<uint32_t>(sel.size()), want_v,
                                &got);
        s.filter_eq_i64_indexed(data.data(), sel.data(), 0,
                                static_cast<uint32_t>(sel.size()), want_v,
                                &want);
        EXPECT_EQ(got, want) << "indexed n=" << n;
      }
    }
  }
}

TEST(SimdParity, FilterEqI32Codes) {
  const simd::Ops& a = simd::Active();
  const simd::Ops& s = simd::ScalarOps();
  for (size_t n : kSizes) {
    std::vector<int32_t> codes(n);
    for (size_t i = 0; i < n; ++i) codes[i] = static_cast<int32_t>(i % 5);
    // want=3 hits some rows; want=77 hits none (all-false); and a
    // constant column tests the all-true lane mask.
    for (int32_t want_c : {3, 77, 0}) {
      for (bool keep : {true, false}) {
        std::vector<uint32_t> got, want;
        a.filter_eq_i32_dense(codes.data(), 0, static_cast<uint32_t>(n),
                              want_c, keep, &got);
        s.filter_eq_i32_dense(codes.data(), 0, static_cast<uint32_t>(n),
                              want_c, keep, &want);
        EXPECT_EQ(got, want) << "dense n=" << n << " keep=" << keep;
        for (const auto& sel : Selections(n)) {
          got.clear();
          want.clear();
          a.filter_eq_i32_indexed(codes.data(), sel.data(), 0,
                                  static_cast<uint32_t>(sel.size()), want_c,
                                  keep, &got);
          s.filter_eq_i32_indexed(codes.data(), sel.data(), 0,
                                  static_cast<uint32_t>(sel.size()), want_c,
                                  keep, &want);
          EXPECT_EQ(got, want) << "indexed n=" << n;
        }
      }
    }
    std::vector<int32_t> constant(n, 9);
    std::vector<uint32_t> got, want;
    a.filter_eq_i32_dense(constant.data(), 0, static_cast<uint32_t>(n), 9,
                          true, &got);
    s.filter_eq_i32_dense(constant.data(), 0, static_cast<uint32_t>(n), 9,
                          true, &want);
    EXPECT_EQ(got, want) << "all-true n=" << n;
  }
}

TEST(SimdParity, Gathers) {
  const simd::Ops& a = simd::Active();
  const simd::Ops& s = simd::ScalarOps();
  const size_t table_n = 300;
  std::vector<double> f64 = EdgeDoubles(table_n);
  std::vector<int64_t> i64 = EdgeInt64s(table_n);
  for (size_t n : kSizes) {
    std::vector<uint32_t> rows(n);
    for (size_t i = 0; i < n; ++i) {
      rows[i] = static_cast<uint32_t>((i * 7) % table_n);
    }
    std::vector<double> got(n, -7.0), want(n, -7.0);
    a.gather_f64(f64.data(), rows.data(), n, got.data());
    s.gather_f64(f64.data(), rows.data(), n, want.data());
    // Bitwise: NaN payloads and -0.0 must round-trip exactly.
    // An empty vector's data() may be null, which memcmp must not see.
    EXPECT_TRUE(n == 0 ||
                std::memcmp(got.data(), want.data(), n * sizeof(double)) == 0)
        << "gather_f64 n=" << n;
    a.gather_i64_to_f64(i64.data(), rows.data(), n, got.data());
    s.gather_i64_to_f64(i64.data(), rows.data(), n, want.data());
    EXPECT_TRUE(n == 0 ||
                std::memcmp(got.data(), want.data(), n * sizeof(double)) == 0)
        << "gather_i64_to_f64 n=" << n;
  }
}

TEST(SimdParity, ScanSlots8) {
  const simd::Ops& a = simd::Active();
  const simd::Ops& s = simd::ScalarOps();
  constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  // Every 2^8 occupancy pattern × a hash layout where occupied slots
  // alternate between the probe hash and a decoy — including hash 0,
  // which collides with the zero-initialized hash of an empty slot.
  for (uint64_t target : {uint64_t{0}, uint64_t{0x123456789ABCDEFull}}) {
    for (uint32_t occ = 0; occ < 256; ++occ) {
      uint64_t hashes[8];
      uint32_t ids[8];
      for (uint32_t j = 0; j < 8; ++j) {
        if (occ & (1u << j)) {
          ids[j] = j;
          hashes[j] = (j % 2 == 0) ? target : target + 1;
        } else {
          ids[j] = kEmpty;
          hashes[j] = 0;  // empty slots keep their zeroed hash
        }
      }
      simd::SlotScan8 got = a.scan_slots8(hashes, ids, target, kEmpty);
      simd::SlotScan8 want = s.scan_slots8(hashes, ids, target, kEmpty);
      EXPECT_EQ(got.match, want.match) << "occ=" << occ;
      EXPECT_EQ(got.empty, want.empty) << "occ=" << occ;
    }
  }
}

/// Equal bits, so -0.0 differs from +0.0.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SimdParity, MinMax) {
  const simd::Ops& a = simd::Active();
  const simd::Ops& s = simd::ScalarOps();
  for (size_t n : kSizes) {
    if (n == 0) continue;  // The bounds of nothing are not defined.
    std::vector<int64_t> ints = EdgeInt64s(n);
    ints[n / 2] = std::numeric_limits<int64_t>::max();
    ints[n - 1 - n / 3] = std::numeric_limits<int64_t>::min();
    int64_t got_lo = 0, got_hi = 0, want_lo = 0, want_hi = 0;
    a.minmax_i64(ints.data(), n, &got_lo, &got_hi);
    s.minmax_i64(ints.data(), n, &want_lo, &want_hi);
    EXPECT_EQ(got_lo, want_lo) << "n=" << n;
    EXPECT_EQ(got_hi, want_hi) << "n=" << n;
    EXPECT_EQ(want_lo, *std::min_element(ints.begin(), ints.end()));
    EXPECT_EQ(want_hi, *std::max_element(ints.begin(), ints.end()));

    // Edge doubles (NaN, ±0, ±inf), the same without NaN, signed zeros
    // only, and NaN only.
    std::vector<double> edge = EdgeDoubles(n);
    std::vector<double> ordered = edge;
    for (double& v : ordered) v = std::isnan(v) ? -0.0 : v;
    std::vector<double> zeros(n);
    for (size_t i = 0; i < n; ++i) zeros[i] = i % 2 == 0 ? -0.0 : 0.0;
    std::vector<double> nans(n, kNaN);
    for (const std::vector<double>* data : {&edge, &ordered, &zeros, &nans}) {
      double got_l = 0, got_h = 0, want_l = 0, want_h = 0;
      const bool got_nan = a.minmax_f64(data->data(), n, &got_l, &got_h);
      const bool want_nan = s.minmax_f64(data->data(), n, &want_l, &want_h);
      EXPECT_EQ(got_nan, want_nan) << "n=" << n;
      EXPECT_TRUE(SameBits(got_l, want_l)) << got_l << " vs " << want_l;
      EXPECT_TRUE(SameBits(got_h, want_h)) << got_h << " vs " << want_h;
      bool any_nan = false;
      double lo = kInf;
      double hi = -kInf;
      for (double v : *data) {
        any_nan = any_nan || std::isnan(v);
        if (v < lo) lo = v;
        if (v > hi) hi = v;
      }
      EXPECT_EQ(want_nan, any_nan) << "n=" << n;
      EXPECT_EQ(want_l, lo) << "n=" << n;
      EXPECT_EQ(want_h, hi) << "n=" << n;
    }
    double l = 0, h = 0;
    s.minmax_f64(zeros.data(), n, &l, &h);
    EXPECT_TRUE(SameBits(l, 0.0) && SameBits(h, 0.0)) << "zero bounds are +0";
    EXPECT_TRUE(s.minmax_f64(nans.data(), n, &l, &h));
    EXPECT_EQ(l, kInf);
    EXPECT_EQ(h, -kInf);
  }
}

TEST(SimdDispatch, LevelNameIsConsistent) {
  // Enabled() ⇔ a non-scalar backend was selected; LevelName() agrees.
  if (simd::Enabled()) {
    EXPECT_STRNE(simd::LevelName(), "scalar");
    EXPECT_NE(&simd::Active(), &simd::ScalarOps());
  } else {
    EXPECT_STREQ(simd::LevelName(), "scalar");
    EXPECT_EQ(&simd::Active(), &simd::ScalarOps());
  }
}

}  // namespace
}  // namespace congress
