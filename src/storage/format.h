#ifndef WEBRE_STORAGE_FORMAT_H_
#define WEBRE_STORAGE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"
#include "xml/flat_doc.h"
#include "xml/name_table.h"

namespace webre {
namespace storage {

/// On-disk primitives shared by the snapshot and WAL codecs
/// (DESIGN.md §14). Everything is little-endian fixed-width; writers
/// append to a std::string, readers bounds-check every access and
/// return Status instead of reading out of range — the fuzz_snapshot
/// target feeds these readers arbitrary bytes.

// ---- Writers (append to a growing buffer) ----

inline void PutU32(std::string& out, uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out.append(b, 4);
}

inline void PutU64(std::string& out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out.append(b, 8);
}

/// Pads `out` with zero bytes to the next multiple of `alignment`
/// (which must be a power of two). Snapshot sections and FlatDoc
/// blocks are 8-aligned so their uint32 arrays can be read in place
/// from the mapped file.
inline void PadTo(std::string& out, size_t alignment) {
  while ((out.size() & (alignment - 1)) != 0) out.push_back('\0');
}

// ---- Readers (raw, caller has already bounds-checked) ----

inline uint32_t GetU32(const char* p) {
  const unsigned char* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

inline uint64_t GetU64(const char* p) {
  const unsigned char* b = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

/// A forward cursor over untrusted bytes. Every Read* checks the
/// remaining length first; a failed read poisons nothing (the caller
/// just propagates the Status), and offsets/lengths decoded from the
/// data itself must still be validated by the caller before use as
/// array bounds.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t offset() const { return off_; }
  size_t remaining() const { return size_ - off_; }
  const char* cursor() const { return data_ + off_; }

  Status ReadU32(uint32_t& out) {
    if (remaining() < 4) return Truncated("u32");
    out = GetU32(data_ + off_);
    off_ += 4;
    return Status::Ok();
  }

  Status ReadU64(uint64_t& out) {
    if (remaining() < 8) return Truncated("u64");
    out = GetU64(data_ + off_);
    off_ += 8;
    return Status::Ok();
  }

  /// Views `n` raw bytes at the cursor (no copy) and advances.
  Status ReadBytes(size_t n, std::string_view& out) {
    if (remaining() < n) return Truncated("bytes");
    out = std::string_view(data_ + off_, n);
    off_ += n;
    return Status::Ok();
  }

  Status Skip(size_t n) {
    if (remaining() < n) return Truncated("skip");
    off_ += n;
    return Status::Ok();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::InvalidArgument(std::string("truncated ") + what +
                                   " in storage input");
  }

  const char* data_;
  size_t size_;
  size_t off_ = 0;
};

// ---- Stored FlatDoc blocks ----

/// The format version the snapshot and the WAL are written in
/// (kSnapshotVersion, kWalVersion): a stored block is exactly
/// FlatDoc::block_data().
inline constexpr uint32_t kFormatVersion = 2;
/// Version 1 stored every block with two more arrays: a depth array
/// after the parents and an ASCII-lowered copy of the text pool at the
/// end. Both readers still accept v1 files and upgrade their blocks by
/// copy (LoadBlockCopy); nothing writes v1.
inline constexpr uint32_t kFormatV1 = 1;

/// Writer-side NameId → this process's NameId, ascending by writer id.
using NameRemap = std::vector<std::pair<NameId, NameId>>;

/// The copying load of one stored block: copies `stored` (written under
/// format `version`, kFormatV1 or kFormatVersion) into an owned buffer,
/// drops a v1 block's depth and lowered arrays (once its v1 size
/// arithmetic is proven to hold exactly), rewrites every NameId through
/// `remap` when one is given, and validates the result with
/// FlatDoc::FromOwnedBlock against `name_limit`. InvalidArgument on any
/// mismatch — a NameId missing from `remap` included — never an
/// out-of-range read.
StatusOr<std::unique_ptr<FlatDoc>> LoadBlockCopy(std::string_view stored,
                                                 uint32_t element_count,
                                                 uint32_t version,
                                                 const NameRemap* remap,
                                                 NameId name_limit);

}  // namespace storage
}  // namespace webre

#endif  // WEBRE_STORAGE_FORMAT_H_
