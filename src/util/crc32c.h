#ifndef CONGRESS_UTIL_CRC32C_H_
#define CONGRESS_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace congress {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum RocksDB, LevelDB and iSCSI use for on-disk integrity, and
/// the one every wire frame, snapshot section and checkpoint carries.
///
/// `Crc32c(data, n)` computes the checksum of a buffer from scratch;
/// `Crc32cExtend` continues a running checksum so multi-buffer sections
/// can be checksummed without concatenation. It runs the CPU's CRC-32C
/// instruction (SSE4.2 `crc32` on x86-64) when available, 8 bytes per
/// step, and the byte table otherwise. The path is chosen once per process;
/// CONGRESS_SIMD=OFF (or a -DCONGRESS_SIMD=OFF build) forces the table.
/// Every path returns the same value.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// The byte-at-a-time table implementation: the reference the hardware
/// path is tested against.
uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t n);

/// "sse4.2" or "table" — the path Crc32cExtend resolved to.
const char* Crc32cLevelName();

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

/// Masks a CRC before storing it next to the data it covers (the
/// LevelDB/RocksDB trick): a CRC stored verbatim inside a file is itself
/// a plausible CRC input, so checksumming a region that embeds its own
/// checksum can yield systematic collisions. Rotate + offset breaks that.
inline uint32_t MaskCrc32c(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc32c(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace congress

#endif  // CONGRESS_UTIL_CRC32C_H_
