#include "common/blob_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/failpoint.h"

namespace fairrec {
namespace {

constexpr uint32_t kTag = 0x54455301u;  // arbitrary test artifact tag

std::string TestPath(const std::string& name) {
  return testing::TempDir() + "/fairrec_blob_" + name;
}

std::string ReadRawFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteRawFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(BlobPrimitivesTest, FieldsRoundTrip) {
  std::string bytes;
  BlobWriter writer(&bytes);
  writer.U32(0xdeadbeefu);
  writer.U64(0x0123456789abcdefull);
  writer.I32(-42);
  writer.I64(-1234567890123ll);
  writer.F64(3.25);
  writer.Bytes("tail");

  BlobReader reader(bytes);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  EXPECT_TRUE(reader.U32(&u32));
  EXPECT_TRUE(reader.U64(&u64));
  EXPECT_TRUE(reader.I32(&i32));
  EXPECT_TRUE(reader.I64(&i64));
  EXPECT_TRUE(reader.F64(&f64));
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123ll);
  EXPECT_EQ(f64, 3.25);
  EXPECT_EQ(reader.remaining(), 4u);
  EXPECT_FALSE(reader.exhausted());
}

TEST(BlobPrimitivesTest, ReaderRefusesToReadPastTheEnd) {
  std::string bytes;
  BlobWriter writer(&bytes);
  writer.U32(7);
  BlobReader reader(bytes);
  uint64_t u64 = 0;
  // Four bytes present, eight requested: the read must fail and move
  // nothing, so the next bounded read still sees the four bytes.
  EXPECT_FALSE(reader.U64(&u64));
  uint32_t u32 = 0;
  EXPECT_TRUE(reader.U32(&u32));
  EXPECT_EQ(u32, 7u);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_FALSE(reader.U32(&u32));
}

TEST(BlobPrimitivesTest, FramedSectionRoundTripsAndLocalizesCorruption) {
  std::string bytes;
  BlobWriter writer(&bytes);
  writer.Framed("first section");
  writer.Framed("");
  writer.Framed("third");

  BlobReader reader(bytes);
  std::string_view a;
  std::string_view b;
  std::string_view c;
  ASSERT_TRUE(reader.FramedSection(&a).ok());
  ASSERT_TRUE(reader.FramedSection(&b).ok());
  ASSERT_TRUE(reader.FramedSection(&c).ok());
  EXPECT_EQ(a, "first section");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, "third");
  EXPECT_TRUE(reader.exhausted());

  // Flip one payload byte of the first section: only it fails.
  std::string corrupt = bytes;
  corrupt[sizeof(uint64_t) + sizeof(uint32_t)] ^= 0x01;
  BlobReader corrupt_reader(corrupt);
  EXPECT_TRUE(corrupt_reader.FramedSection(&a).IsDataLoss());
}

TEST(BlobPrimitivesTest, FramedSectionNeverTrustsTheLength) {
  std::string bytes;
  BlobWriter writer(&bytes);
  writer.Framed("payload");
  // Inflate the length field far past the bytes present; the bounded read
  // must fail cleanly instead of reaching for absent memory.
  const uint64_t huge = 1ull << 60;
  bytes.replace(0, sizeof(huge), reinterpret_cast<const char*>(&huge),
                sizeof(huge));
  BlobReader reader(bytes);
  std::string_view payload;
  EXPECT_TRUE(reader.FramedSection(&payload).IsDataLoss());
}

// Payload sizes around the 28-byte header and a page, plus one past a MiB:
// the header and the payload go to disk and come back as separate buffers.
std::vector<size_t> EdgePayloadSizes() {
  return {0, 1, 27, 28, 4095, 4096, (size_t{1} << 20) + 3};
}

std::string PatternPayload(size_t len) {
  std::string payload(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    payload[i] = static_cast<char>((i * 131 + len) & 0xff);
  }
  return payload;
}

TEST(BlobFileTest, WriteReadRoundTrip) {
  const std::string path = TestPath("roundtrip.frb");
  ASSERT_TRUE(RemovePath(path).ok());
  for (const size_t len : EdgePayloadSizes()) {
    const std::string payload = PatternPayload(len);
    ASSERT_TRUE(WriteBlobFileAtomic(path, kTag, payload).ok()) << len;
    EXPECT_EQ(ReadRawFile(path).size(), 28 + len) << len;
    auto read = ReadBlobFile(path, kTag);
    ASSERT_TRUE(read.ok()) << len << ": " << read.status().ToString();
    EXPECT_TRUE(*read == payload) << len;
  }
  const std::string payload = "some artifact bytes\x00with a nul inside";
  ASSERT_TRUE(WriteBlobFileAtomic(path, kTag, payload).ok());
  auto read = ReadBlobFile(path, kTag);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
  // Overwrite in place: the new payload fully replaces the old.
  ASSERT_TRUE(WriteBlobFileAtomic(path, kTag, "v2").ok());
  read = ReadBlobFile(path, kTag);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v2");
  ASSERT_TRUE(RemovePath(path).ok());
}

TEST(BlobFileTest, MissingFileIsNotFoundNotDataLoss) {
  const auto read = ReadBlobFile(TestPath("never_written.frb"), kTag);
  EXPECT_TRUE(read.status().IsNotFound()) << read.status().ToString();
}

TEST(BlobFileTest, TypeTagMismatchIsRejected) {
  const std::string path = TestPath("tag.frb");
  ASSERT_TRUE(WriteBlobFileAtomic(path, kTag, "payload").ok());
  EXPECT_TRUE(ReadBlobFile(path, kTag + 1).status().IsDataLoss());
  ASSERT_TRUE(RemovePath(path).ok());
}

TEST(BlobFileTest, TruncationBitFlipAndGarbageAreDataLoss) {
  const std::string path = TestPath("corrupt.frb");
  ASSERT_TRUE(WriteBlobFileAtomic(path, kTag, "twelve bytes").ok());
  const std::string clean = ReadRawFile(path);

  // Truncation at every prefix length.
  for (size_t len = 0; len < clean.size(); ++len) {
    WriteRawFile(path, clean.substr(0, len));
    EXPECT_TRUE(ReadBlobFile(path, kTag).status().IsDataLoss())
        << "truncated to " << len;
  }
  // A bit flip in every byte (header and payload alike).
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    std::string flipped = clean;
    flipped[byte] ^= 0x04;
    WriteRawFile(path, flipped);
    EXPECT_TRUE(ReadBlobFile(path, kTag).status().IsDataLoss())
        << "bit flip at byte " << byte;
  }
  // Trailing garbage past the declared payload.
  WriteRawFile(path, clean + "garbage");
  EXPECT_TRUE(ReadBlobFile(path, kTag).status().IsDataLoss());

  WriteRawFile(path, clean);
  EXPECT_TRUE(ReadBlobFile(path, kTag).ok());
  ASSERT_TRUE(RemovePath(path).ok());
}

#if FAIRREC_FAILPOINTS_ENABLED

TEST(BlobFileTest, InjectedCrashesLeaveOldFileOrNothing) {
  const std::string path = TestPath("atomic.frb");
  ASSERT_TRUE(RemovePath(path).ok());
  failpoint::Reset();

  for (const std::string_view site :
       {kFailpointBlobWriteBegin, kFailpointBlobWriteTorn,
        kFailpointBlobWriteBeforeRename}) {
    // Crash with no prior version: the target must not appear.
    failpoint::Arm(site);
    auto status = WriteBlobFileAtomic(path, kTag, "first");
    EXPECT_TRUE(failpoint::IsInjectedCrash(status)) << site;
    EXPECT_FALSE(PathExists(path)) << site;
  }
  ASSERT_TRUE(WriteBlobFileAtomic(path, kTag, "first").ok());
  for (const std::string_view site :
       {kFailpointBlobWriteBegin, kFailpointBlobWriteTorn,
        kFailpointBlobWriteBeforeRename}) {
    // Crash over an existing version: the old bytes must survive intact.
    failpoint::Arm(site);
    auto status = WriteBlobFileAtomic(path, kTag, "second");
    EXPECT_TRUE(failpoint::IsInjectedCrash(status)) << site;
    auto read = ReadBlobFile(path, kTag);
    ASSERT_TRUE(read.ok()) << site << ": " << read.status().ToString();
    EXPECT_EQ(*read, "first") << site;
  }
  failpoint::Reset();
  ASSERT_TRUE(RemovePath(path).ok());
}

TEST(BlobFileTest, TornWriteLeavesHalfTheFileAndNoRename) {
  const std::string path = TestPath("torn_sizes.frb");
  const std::string tmp = path + ".tmp";
  failpoint::Reset();
  for (const size_t len : EdgePayloadSizes()) {
    ASSERT_TRUE(RemovePath(path).ok());
    ASSERT_TRUE(RemovePath(tmp).ok());
    failpoint::Arm(kFailpointBlobWriteTorn);
    const Status status = WriteBlobFileAtomic(path, kTag, PatternPayload(len));
    EXPECT_TRUE(failpoint::IsInjectedCrash(status)) << len;
    EXPECT_FALSE(PathExists(path)) << len;
    // The prefix that reached the disk spans the header/payload seam.
    EXPECT_EQ(ReadRawFile(tmp).size(), (28 + len) / 2) << len;
  }
  failpoint::Reset();
  ASSERT_TRUE(RemovePath(tmp).ok());
}

TEST(BlobFileTest, InjectedBitFlipIsCaughtOnRead) {
  const std::string path = TestPath("bitflip.frb");
  failpoint::Reset();
  for (const size_t len : EdgePayloadSizes()) {
    failpoint::Arm(kFailpointBlobWriteBitFlip);
    // Silent media corruption: the write itself reports success...
    ASSERT_TRUE(WriteBlobFileAtomic(path, kTag, PatternPayload(len)).ok())
        << len;
    // ...and only the checksum chain can catch it.
    EXPECT_TRUE(ReadBlobFile(path, kTag).status().IsDataLoss()) << len;
  }
  failpoint::Reset();
  ASSERT_TRUE(RemovePath(path).ok());
}

#endif  // FAIRREC_FAILPOINTS_ENABLED

}  // namespace
}  // namespace fairrec
