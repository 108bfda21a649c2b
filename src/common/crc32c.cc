#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FAIRREC_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace fairrec {

namespace {

/// Reflected Castagnoli polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

/// Eight lookup tables for the slice-by-8 walk: table[0] is the classic
/// byte-at-a-time table, table[k] advances a byte seen k positions earlier.
/// Built at compile time so the .rodata image is deterministic.
constexpr std::array<std::array<uint32_t, 256>, 8> BuildTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t t = 1; t < 8; ++t) {
      tables[t][i] =
          (tables[t - 1][i] >> 8) ^ tables[0][tables[t - 1][i] & 0xffu];
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kTables = BuildTables();

#ifdef FAIRREC_CRC32C_X86
/// The `crc32` instruction walk, compiled for SSE4.2 whatever the build's
/// baseline ISA; only handed out after the CPU check.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                      const void* data,
                                                      size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  // One instruction per eight bytes (unaligned loads are cheap on x86-64),
  // then the tail byte by byte.
  uint64_t wide = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
  }
  auto c = static_cast<uint32_t>(wide);
  for (; n > 0; --n) c = _mm_crc32_u8(c, *p++);
  return ~c;
}
#endif

}  // namespace

namespace crc32c_internal {

uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Head: align to 8 bytes one byte at a time.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p++) & 0xffu];
    --n;
  }
  // Body: eight bytes per iteration, one table load per byte, no carry
  // chain between the eight loads.
  while (n >= 8) {
    const uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                               (static_cast<uint32_t>(p[1]) << 8) |
                               (static_cast<uint32_t>(p[2]) << 16) |
                               (static_cast<uint32_t>(p[3]) << 24));
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
          kTables[0][p[7]];
    p += 8;
    n -= 8;
  }
  // Tail.
  while (n > 0) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p++) & 0xffu];
    --n;
  }
  return ~crc;
}

ExtendFn HardwareExtend() {
#ifdef FAIRREC_CRC32C_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return nullptr;
}

}  // namespace crc32c_internal

uint32_t ExtendCrc32c(uint32_t crc, const void* data, size_t n) {
  // Chosen once, by CPU feature detection.
  static const crc32c_internal::ExtendFn hardware =
      crc32c_internal::HardwareExtend();
  return hardware != nullptr ? hardware(crc, data, n)
                             : crc32c_internal::ExtendPortable(crc, data, n);
}

}  // namespace fairrec
