#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace fairrec {
namespace {

// RFC 3720 / iSCSI known-answer vectors — the values any conforming CRC-32C
// produces, so artifacts verify across implementations.
void ExpectReferenceVectors(crc32c_internal::ExtendFn extend,
                            const char* path) {
  EXPECT_EQ(extend(0, "", 0), 0u) << path;
  const std::string check = "123456789";
  EXPECT_EQ(extend(0, check.data(), check.size()), 0xe3069283u) << path;
  const std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(extend(0, zeros.data(), zeros.size()), 0x8a9136aau) << path;
  const std::vector<uint8_t> ones(32, 0xff);
  EXPECT_EQ(extend(0, ones.data(), ones.size()), 0x62a8ab43u) << path;
  std::vector<uint8_t> ascending(32);
  std::vector<uint8_t> descending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  EXPECT_EQ(extend(0, ascending.data(), ascending.size()), 0x46dd794eu)
      << path;
  EXPECT_EQ(extend(0, descending.data(), descending.size()), 0x113fdb5cu)
      << path;
}

// The dispatched and the portable path; the hardware path has its own test
// below, which skips on CPUs without SSE4.2.
TEST(Crc32cTest, MatchesReferenceVectors) {
  ExpectReferenceVectors(ExtendCrc32c, "dispatched");
  ExpectReferenceVectors(crc32c_internal::ExtendPortable, "portable");
}

TEST(Crc32cTest, ExtendEqualsOneShot) {
  const std::string bytes = "the quick brown fox jumps over the lazy dog";
  const uint32_t one_shot = Crc32c(bytes.data(), bytes.size());
  // Any split point must continue to the same value.
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = ExtendCrc32c(0, bytes.data(), split);
    const uint32_t full =
        ExtendCrc32c(head, bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(full, one_shot) << "split " << split;
  }
}

TEST(Crc32cTest, EveryBitFlipChangesTheChecksum) {
  const std::string bytes = "durability layer probe";
  const uint32_t clean = Crc32c(bytes.data(), bytes.size());
  std::string mutated = bytes;
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      EXPECT_NE(Crc32c(mutated.data(), mutated.size()), clean)
          << "byte " << byte << " bit " << bit;
      mutated[byte] = bytes[byte];
    }
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  for (const uint32_t crc : {0u, 1u, 0xe3069283u, 0xffffffffu, 0xdeadbeefu}) {
    EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(crc)), crc);
    EXPECT_NE(MaskCrc32c(crc), crc);
  }
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  return bytes;
}

TEST(Crc32cTest, HardwarePathMatchesReferenceVectors) {
  const crc32c_internal::ExtendFn hardware = crc32c_internal::HardwareExtend();
  if (hardware == nullptr) GTEST_SKIP() << "CPU lacks SSE4.2";
  ExpectReferenceVectors(hardware, "hardware");
}

TEST(Crc32cTest, HardwareAndPortableAgreeOnEveryLengthAndOffset) {
  const crc32c_internal::ExtendFn hardware = crc32c_internal::HardwareExtend();
  if (hardware == nullptr) GTEST_SKIP() << "CPU lacks SSE4.2";
  // Every length 0..1024 at every alignment 0..7 covers each head / body /
  // tail split of both walks.
  const std::vector<uint8_t> bytes = RandomBytes(1024 + 8, 0xc3c3);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(hardware(0, p, len),
                crc32c_internal::ExtendPortable(0, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, HardwareAndPortableAgreeOnRandomExtendChains) {
  const crc32c_internal::ExtendFn hardware = crc32c_internal::HardwareExtend();
  if (hardware == nullptr) GTEST_SKIP() << "CPU lacks SSE4.2";
  const std::vector<uint8_t> bytes = RandomBytes(4096, 0x5a5a);
  Rng rng(0x1234);
  for (int chain = 0; chain < 200; ++chain) {
    // Split the buffer at random points and let the two paths alternate
    // over the pieces: any mix must reach the one-shot value.
    uint32_t mixed = 0;
    size_t pos = 0;
    bool use_hardware = rng.NextBool(0.5);
    while (pos < bytes.size()) {
      const auto piece = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(std::min<size_t>(97, bytes.size() - pos))));
      mixed = use_hardware
                  ? hardware(mixed, &bytes[pos], piece)
                  : crc32c_internal::ExtendPortable(mixed, &bytes[pos], piece);
      pos += piece;
      use_hardware = !use_hardware;
    }
    EXPECT_EQ(mixed, crc32c_internal::ExtendPortable(0, bytes.data(),
                                                     bytes.size()))
        << "chain " << chain;
  }
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()),
            crc32c_internal::ExtendPortable(0, bytes.data(), bytes.size()));
}

}  // namespace
}  // namespace fairrec
