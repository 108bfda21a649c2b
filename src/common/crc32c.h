#ifndef FAIRREC_COMMON_CRC32C_H_
#define FAIRREC_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace fairrec {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected) — the checksum
/// every durable artifact in the library frames its bytes with (see
/// common/blob_io.h and ratings/delta_journal.h). Chosen over plain CRC-32
/// for its strictly better Hamming distance at the blob sizes the moment
/// store and checkpoint container produce. On x86-64 CPUs with SSE4.2 the
/// `crc32` instruction does the work, chosen at run time by CPU feature
/// detection; elsewhere a portable slice-by-8 table walk does. Both produce
/// the same values, so the durability layer verifies blobs on any host the
/// artifacts migrate to.
///
/// `ExtendCrc32c` continues a running checksum so multi-section containers
/// can checksum without concatenating; `Crc32c` is the one-shot form.
/// Values match the RFC 3720 / iSCSI reference vectors.
uint32_t ExtendCrc32c(uint32_t crc, const void* data, size_t n);

/// The two implementations behind ExtendCrc32c, exposed so tests can check
/// that they agree.
namespace crc32c_internal {

using ExtendFn = uint32_t (*)(uint32_t crc, const void* data, size_t n);

/// The slice-by-8 table walk, available everywhere.
uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n);

/// The SSE4.2 `crc32` instruction walk, or nullptr when this CPU lacks it
/// (or is not x86-64).
ExtendFn HardwareExtend();

}  // namespace crc32c_internal

inline uint32_t Crc32c(const void* data, size_t n) {
  return ExtendCrc32c(0, data, n);
}

/// Masked form for stored checksums, after the RocksDB/LevelDB convention:
/// a CRC of bytes that themselves embed a CRC is pathologically structured,
/// so persisted checksums are rotated and offset. Verifiers unmask before
/// comparing.
inline uint32_t MaskCrc32c(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t UnmaskCrc32c(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace fairrec

#endif  // FAIRREC_COMMON_CRC32C_H_
