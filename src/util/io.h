// Binary (de)serialization streams used by checkpoint files.
//
// The on-disk format is little-endian native-width POD; these helpers add
// error propagation and convenience methods for vectors and strings. Both
// streams run over the persist::FileSystem abstraction (default: POSIX), so
// the fault-injection file system can drive them through short writes, EIO,
// disk-full and crash-at-offset scenarios in tests.
//
// Robustness contract:
//  * the reader knows the file size up front and validates every
//    length-prefixed read against the remaining bytes *before* allocating,
//    so a corrupt count yields Status::IoError instead of bad_alloc;
//  * both streams keep a running CRC32C (CrcReset()/crc()) that the
//    sectioned index format uses for per-section checksums.

#ifndef MBI_UTIL_IO_H_
#define MBI_UTIL_IO_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "persist/file.h"
#include "util/status.h"

namespace mbi {

/// Overflow-checked product of two unsigned 64-bit sizes. Returns false and
/// leaves *out untouched when a*b would not fit.
inline bool CheckedMul(uint64_t a, uint64_t b, uint64_t* out) {
  if (b != 0 && a > std::numeric_limits<uint64_t>::max() / b) return false;
  *out = a * b;
  return true;
}

/// Streaming binary writer over a persist::WritableFile. Not thread-safe.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  ~BinaryWriter();

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  /// Opens `path` for writing (truncates) through `fs` (POSIX if null).
  Status Open(const std::string& path, persist::FileSystem* fs = nullptr);

  /// Takes ownership of an already-open file (offset assumed 0).
  void Attach(std::unique_ptr<persist::WritableFile> file);

  /// Flushes and closes. Idempotent: after the first call (whatever its
  /// outcome) the writer is closed and further calls return OK. A flush
  /// failure (e.g. full disk draining buffered data) and a close failure
  /// are reported distinctly.
  Status Close();

  /// Flush + fsync; data is durable on OK.
  Status Sync();

  /// Writes a trivially copyable value.
  template <typename T>
  Status Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return WriteBytes(&value, sizeof(T));
  }

  /// Writes raw bytes.
  Status WriteBytes(const void* data, size_t size);

  /// Writes a length-prefixed vector of PODs.
  template <typename T>
  Status WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    MBI_RETURN_IF_ERROR(Write<uint64_t>(v.size()));
    if (!v.empty()) {
      MBI_RETURN_IF_ERROR(WriteBytes(v.data(), v.size() * sizeof(T)));
    }
    return Status::Ok();
  }

  /// Writes a length-prefixed string.
  Status WriteString(const std::string& s);

  /// Overwrites bytes at an absolute offset (section-table patching). Does
  /// not advance offset() and is not folded into the running CRC.
  Status PatchAt(uint64_t offset, const void* data, size_t size);

  /// Bytes appended so far.
  uint64_t offset() const { return offset_; }

  /// Running CRC32C of everything appended since the last CrcReset().
  void CrcReset() { crc_ = 0; }
  uint32_t crc() const { return crc_; }

 private:
  std::unique_ptr<persist::WritableFile> file_;
  uint64_t offset_ = 0;
  uint32_t crc_ = 0;
};

/// Streaming binary reader over a persist::ReadableFile. Not thread-safe.
class BinaryReader {
 public:
  BinaryReader() = default;
  ~BinaryReader();

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  /// Opens `path` through `fs` (POSIX if null) and captures the file size.
  Status Open(const std::string& path, persist::FileSystem* fs = nullptr);

  /// Closes and reports any read error the stream deferred. Idempotent:
  /// further calls after the first return OK.
  Status Close();

  template <typename T>
  Status Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(value, sizeof(T));
  }

  Status ReadBytes(void* data, size_t size);

  /// Reads a length-prefixed vector, validating the untrusted count against
  /// the remaining file size (and against uint64 overflow) before resizing.
  template <typename T>
  Status ReadVector(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    MBI_RETURN_IF_ERROR(Read<uint64_t>(&n));
    uint64_t bytes = 0;
    if (!CheckedMul(n, sizeof(T), &bytes) || bytes > Remaining()) {
      return Status::IoError("corrupt vector length: " + std::to_string(n) +
                             " elements exceed remaining file size");
    }
    v->resize(n);
    if (n > 0) {
      MBI_RETURN_IF_ERROR(ReadBytes(v->data(), static_cast<size_t>(bytes)));
    }
    return Status::Ok();
  }

  /// Reads a length-prefixed string with the same bounds validation.
  Status ReadString(std::string* s);

  /// Total file size, current position and bytes left.
  uint64_t size() const { return size_; }
  uint64_t offset() const { return offset_; }
  uint64_t Remaining() const { return size_ - offset_; }

  /// Running CRC32C of everything read since the last CrcReset().
  void CrcReset() { crc_ = 0; }
  uint32_t crc() const { return crc_; }

 private:
  std::unique_ptr<persist::ReadableFile> file_;
  uint64_t size_ = 0;
  uint64_t offset_ = 0;
  uint32_t crc_ = 0;
};

}  // namespace mbi

#endif  // MBI_UTIL_IO_H_
