#include "common/blob_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/crc32c.h"
#include "common/failpoint.h"

namespace fairrec {

namespace {

/// Container magic: "FRB1" little-endian.
constexpr uint32_t kBlobMagic = 0x31425246u;
constexpr uint32_t kBlobVersion = 1;

/// magic + version + type + payload_len + payload_crc, all little-endian;
/// the header CRC follows these 24 bytes.
constexpr size_t kHeaderBytes =
    sizeof(uint32_t) * 3 + sizeof(uint64_t) + sizeof(uint32_t);
/// Everything ahead of the payload: the header and its CRC (28 bytes).
constexpr size_t kFileHeaderBytes = kHeaderBytes + sizeof(uint32_t);

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}

/// write(2) until done; short writes continue, EINTR retries.
Status WriteAll(int fd, const char* data, size_t n, const std::string& path) {
  while (n > 0) {
    const ssize_t written = ::write(fd, data, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write", path));
    }
    data += written;
    n -= static_cast<size_t>(written);
  }
  return Status::OK();
}

/// read(2) until `n` bytes or end of file; EINTR retries. `*got` receives
/// the bytes read (fewer than `n` when the file is shorter).
Status ReadUpTo(int fd, char* data, size_t n, const std::string& path,
                size_t* got) {
  *got = 0;
  while (*got < n) {
    const ssize_t chunk = ::read(fd, data + *got, n - *got);
    if (chunk < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("read", path));
    }
    if (chunk == 0) break;  // shrank underneath us; caught by the frame check
    *got += static_cast<size_t>(chunk);
  }
  return Status::OK();
}

Status FsyncPath(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? O_RDONLY | O_DIRECTORY
                                                : O_RDONLY);
  if (fd < 0) return Status::IOError(ErrnoMessage("open for fsync", path));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError(ErrnoMessage("fsync", path));
  return Status::OK();
}

std::string DirectoryOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Flips one bit of `path` in place at a deterministic payload offset —
/// the silent-corruption injection behind kFailpointBlobWriteBitFlip.
Status FlipOneBit(const std::string& path, size_t file_bytes) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return Status::IOError(ErrnoMessage("open for bit flip", path));
  // Middle of the payload region (past the header when one exists).
  const size_t offset =
      file_bytes > kFileHeaderBytes
          ? kFileHeaderBytes + (file_bytes - kFileHeaderBytes) / 2
          : file_bytes / 2;
  unsigned char byte = 0;
  if (::pread(fd, &byte, 1, static_cast<off_t>(offset)) != 1) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("pread for bit flip", path));
  }
  byte ^= 0x10u;
  if (::pwrite(fd, &byte, 1, static_cast<off_t>(offset)) != 1) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("pwrite for bit flip", path));
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// BlobWriter / BlobReader
// ---------------------------------------------------------------------------

void BlobWriter::Raw(const void* data, size_t bytes) {
  out_->append(static_cast<const char*>(data), bytes);
}

void BlobWriter::Framed(std::string_view payload) {
  U64(static_cast<uint64_t>(payload.size()));
  U32(MaskCrc32c(Crc32c(payload.data(), payload.size())));
  Bytes(payload);
}

bool BlobReader::Raw(void* out, size_t bytes) {
  if (data_.size() - pos_ < bytes) return false;
  std::memcpy(out, data_.data() + pos_, bytes);
  pos_ += bytes;
  return true;
}

Status BlobReader::FramedSection(std::string_view* payload) {
  uint64_t length = 0;
  uint32_t masked_crc = 0;
  if (!U64(&length) || !U32(&masked_crc)) {
    return Status::DataLoss("truncated section frame");
  }
  if (length > remaining()) {
    return Status::DataLoss("section length exceeds the bytes present");
  }
  const std::string_view bytes = data_.substr(pos_, length);
  if (Crc32c(bytes.data(), bytes.size()) != UnmaskCrc32c(masked_crc)) {
    return Status::DataLoss("section checksum mismatch");
  }
  pos_ += length;
  *payload = bytes;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// File container
// ---------------------------------------------------------------------------

Status WriteBlobFileAtomic(const std::string& path, uint32_t type_tag,
                           std::string_view payload) {
  if (failpoint::Triggered(kFailpointBlobWriteBegin)) {
    return failpoint::InjectedCrash(kFailpointBlobWriteBegin);
  }

  // The header goes out first and the payload straight from the caller's
  // buffer: no concatenated copy of the file.
  std::string header;
  {
    BlobWriter writer(&header);
    writer.U32(kBlobMagic);
    writer.U32(kBlobVersion);
    writer.U32(type_tag);
    writer.U64(static_cast<uint64_t>(payload.size()));
    writer.U32(MaskCrc32c(Crc32c(payload.data(), payload.size())));
    writer.U32(MaskCrc32c(Crc32c(header.data(), kHeaderBytes)));
  }
  const size_t file_bytes = header.size() + payload.size();

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", tmp));

  // A torn write models the kill mid-write: a prefix of the bytes reaches
  // the disk, the rename never happens, and recovery must shrug the temp
  // file off.
  const bool torn = failpoint::Triggered(kFailpointBlobWriteTorn);
  const size_t to_write = torn ? file_bytes / 2 : file_bytes;
  const size_t header_part = std::min(to_write, header.size());
  Status write_status = WriteAll(fd, header.data(), header_part, tmp);
  if (write_status.ok()) {
    write_status = WriteAll(fd, payload.data(), to_write - header_part, tmp);
  }
  if (!write_status.ok()) {
    ::close(fd);
    return write_status;
  }
  if (torn) {
    ::close(fd);
    return failpoint::InjectedCrash(kFailpointBlobWriteTorn);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("fsync", tmp));
  }
  if (::close(fd) != 0) return Status::IOError(ErrnoMessage("close", tmp));

  if (failpoint::Triggered(kFailpointBlobWriteBeforeRename)) {
    return failpoint::InjectedCrash(kFailpointBlobWriteBeforeRename);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError(ErrnoMessage("rename", tmp));
  }
  if (failpoint::Triggered(kFailpointBlobWriteBeforeDirSync)) {
    return failpoint::InjectedCrash(kFailpointBlobWriteBeforeDirSync);
  }
  // The rename itself must be durable: fsync the containing directory.
  FAIRREC_RETURN_NOT_OK(FsyncPath(DirectoryOf(path), /*directory=*/true));

  if (failpoint::Triggered(kFailpointBlobWriteBitFlip)) {
    FAIRREC_RETURN_NOT_OK(FlipOneBit(path, file_bytes));
  }
  return Status::OK();
}

Result<std::string> ReadBlobFile(const std::string& path, uint32_t type_tag) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such blob file: " + path);
    return Status::IOError(ErrnoMessage("open", path));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("fstat", path));
  }
  // The header into a small buffer, the payload straight into the string
  // the caller gets: no copy of the payload out of a whole-file buffer.
  const auto file_size = static_cast<size_t>(st.st_size);
  char header[kFileHeaderBytes];
  std::string payload(file_size - std::min(file_size, kFileHeaderBytes), '\0');
  size_t header_read = 0;
  size_t payload_read = 0;
  Status read_status =
      ReadUpTo(fd, header, kFileHeaderBytes, path, &header_read);
  if (read_status.ok()) {
    read_status =
        ReadUpTo(fd, payload.data(), payload.size(), path, &payload_read);
  }
  ::close(fd);
  FAIRREC_RETURN_NOT_OK(read_status);
  payload.resize(payload_read);

  BlobReader reader(std::string_view(header, header_read));
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t type = 0;
  uint64_t payload_len = 0;
  uint32_t payload_crc = 0;
  uint32_t header_crc = 0;
  if (!reader.U32(&magic) || !reader.U32(&version) || !reader.U32(&type) ||
      !reader.U64(&payload_len) || !reader.U32(&payload_crc) ||
      !reader.U32(&header_crc)) {
    return Status::DataLoss("truncated blob header: " + path);
  }
  if (Crc32c(header, kHeaderBytes) != UnmaskCrc32c(header_crc)) {
    return Status::DataLoss("blob header checksum mismatch: " + path);
  }
  if (magic != kBlobMagic) {
    return Status::DataLoss("bad blob magic: " + path);
  }
  if (version != kBlobVersion) {
    return Status::DataLoss("unsupported blob version: " + path);
  }
  if (type != type_tag) {
    return Status::DataLoss("blob type tag mismatch: " + path);
  }
  if (payload_len != payload.size()) {
    return Status::DataLoss("blob payload length mismatch: " + path);
  }
  if (Crc32c(payload.data(), payload.size()) != UnmaskCrc32c(payload_crc)) {
    return Status::DataLoss("blob payload checksum mismatch: " + path);
  }
  return payload;
}

bool PathExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

Status RemovePath(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(ErrnoMessage("unlink", path));
  }
  return Status::OK();
}

Status EnsureDirectory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError(ErrnoMessage("mkdir", path));
  }
  return Status::OK();
}

}  // namespace fairrec
