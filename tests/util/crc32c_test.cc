#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/simd.h"

namespace congress {
namespace {

TEST(Crc32cTest, EmptyIsZero) {
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 (iSCSI) appendix test vectors.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);

  unsigned char zeros[32];
  std::memset(zeros, 0, sizeof(zeros));
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);

  unsigned char ones[32];
  std::memset(ones, 0xFF, sizeof(ones));
  EXPECT_EQ(Crc32c(ones, sizeof(ones)), 0x62A8AB43u);

  unsigned char ascending[32];
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(Crc32c(ascending, sizeof(ascending)), 0x46DD794Eu);
}

TEST(Crc32cTest, TablePathMatchesKnownVectors) {
  // The reference path on its own, whichever path Crc32c resolved to.
  EXPECT_EQ(Crc32cExtendTable(0, "123456789", 9), 0xE3069283u);
  unsigned char zeros[32];
  std::memset(zeros, 0, sizeof(zeros));
  EXPECT_EQ(Crc32cExtendTable(0, zeros, sizeof(zeros)), 0x8A9136AAu);
  unsigned char ones[32];
  std::memset(ones, 0xFF, sizeof(ones));
  EXPECT_EQ(Crc32cExtendTable(0, ones, sizeof(ones)), 0x62A8AB43u);
  unsigned char descending[32];
  for (int i = 0; i < 32; ++i) {
    descending[i] = static_cast<unsigned char>(31 - i);
  }
  EXPECT_EQ(Crc32cExtendTable(0, descending, sizeof(descending)),
            0x113FDB5Cu);
  EXPECT_EQ(Crc32c(descending, sizeof(descending)), 0x113FDB5Cu);
}

TEST(Crc32cTest, ActivePathMatchesTableAtEveryLengthAndAlignment) {
  // Every length 0-4096 at every start alignment 0-7, from a zero CRC and
  // extending a running CRC: the resolved path (hardware where the CPU
  // has it) must agree with the byte table bit for bit.
  SCOPED_TRACE(Crc32cLevelName());
  constexpr size_t kMaxLen = 4096;
  std::vector<unsigned char> buffer(kMaxLen + 16);
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (unsigned char& b : buffer) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(state >> 56);
  }
  for (size_t align = 0; align < 8; ++align) {
    const unsigned char* base = buffer.data() + align;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32cExtend(0, base, len), Crc32cExtendTable(0, base, len))
          << "align=" << align << " len=" << len;
      ASSERT_EQ(Crc32cExtend(0xDEADBEEFu, base, len),
                Crc32cExtendTable(0xDEADBEEFu, base, len))
          << "align=" << align << " len=" << len;
    }
  }
}

TEST(Crc32cTest, SimdKillSwitchForcesTable) {
  if (!simd::DisabledByEnv()) GTEST_SKIP() << "run with CONGRESS_SIMD=OFF";
  EXPECT_STREQ(Crc32cLevelName(), "table");
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "congressional samples for group-by";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data.data(), data.size())) << "split=" << split;
  }
}

TEST(Crc32cTest, SingleBitFlipChangesChecksum) {
  std::string data(64, 'x');
  const uint32_t base = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte += 7) {
    std::string flipped = data;
    flipped[byte] = static_cast<char>(flipped[byte] ^ 0x10);
    EXPECT_NE(Crc32c(flipped.data(), flipped.size()), base);
  }
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu}) {
    EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(crc)), crc);
    EXPECT_NE(MaskCrc32c(crc), crc);
  }
}

}  // namespace
}  // namespace congress
