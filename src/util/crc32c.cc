#include "util/crc32c.h"

#include <array>
#include <cstring>

#include "util/simd.h"

// A -DCONGRESS_SIMD=OFF build compiles the table path only.
#if !defined(CONGRESS_SIMD_DISABLED) && \
    (defined(__x86_64__) || defined(_M_X64))
#include <nmmintrin.h>
#define CONGRESS_CRC32C_SSE42 1
#endif

namespace congress {

namespace {

/// Builds the 256-entry lookup table for the reflected Castagnoli
/// polynomial at first use (constexpr so it lands in .rodata).
constexpr std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = BuildTable();

// The hardware path feeds the same reflected CRC register one byte until
// `p` is 8-aligned, then 8 bytes per instruction, then the tail bytes.
// The instruction implements exactly the table's polynomial and bit
// order, so every CRC value is unchanged.
#if defined(CONGRESS_CRC32C_SSE42)
__attribute__((target("sse4.2"))) uint32_t HardwareExtend(uint32_t crc,
                                                          const void* data,
                                                          size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~crc;
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0; --n) {
    c = _mm_crc32_u8(c, *p++);
  }
  uint64_t c64 = c;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<uint32_t>(c64);
  for (; n > 0; --n) c = _mm_crc32_u8(c, *p++);
  return ~c;
}

bool HardwareSupported() { return __builtin_cpu_supports("sse4.2"); }
#endif

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

struct Resolved {
  ExtendFn extend;
  const char* name;
};

/// Picks the CRC path once per process, as util/simd does: the compiled
/// ISA, the CPU's support for it, and the CONGRESS_SIMD kill switch, which
/// forces the table.
Resolved Resolve() {
#if defined(CONGRESS_CRC32C_SSE42)
  if (!simd::DisabledByEnv() && HardwareSupported()) {
    return {HardwareExtend, "sse4.2"};
  }
#endif
  return {Crc32cExtendTable, "table"};
}

const Resolved& Active() {
  static const Resolved resolved = Resolve();
  return resolved;
}

}  // namespace

uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  return Active().extend(crc, data, n);
}

const char* Crc32cLevelName() { return Active().name; }

}  // namespace congress
