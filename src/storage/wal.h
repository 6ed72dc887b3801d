#ifndef WEBRE_STORAGE_WAL_H_
#define WEBRE_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "repository/path_index.h"
#include "storage/format.h"
#include "util/status.h"
#include "xml/flat_doc.h"
#include "xml/name_table.h"

namespace webre {
namespace storage {

/// Per-shard write-ahead log (DESIGN.md §14). One append-only file per
/// repository shard; `DurableRepository::Add` appends the frozen
/// document's record before acknowledging, so every acknowledged
/// document survives a crash (up to the chosen sync level), and
/// `Open` replays the logs over the latest snapshot.
///
/// File layout:
///   header  = magic "WBREWAL1" | u32 version | u32 reserved
///           | u64 seed_hash (NameTable generation guard)
///   records = repeated: u32 body_len | u32 crc32c(body) | body
///   body    = u64 doc_id | u32 element_count | u32 name_count
///           | u64 block_bytes
///           | name_count × (u32 name_id | u32 len | bytes)   dictionary
///           | block_bytes raw FlatDoc block (v2 layout; a v1 log's
///             blocks still carry the depth and lowered arrays)
///
/// Records carry a per-document name dictionary (the distinct NameIds
/// the block uses, with their strings), so replay in a process whose
/// dynamic-name order differs can remap the block instead of serving
/// garbage names. A torn or corrupt record ends the valid prefix —
/// recovery truncates there instead of failing (wal_truncated_bytes).
/// A v1 log is replayed (its blocks upgraded by copy) but never
/// appended to: recovery rewrites it in v2 first.

/// Fixed WAL file header size in bytes.
inline constexpr size_t kWalHeaderSize = 24;
inline constexpr uint32_t kWalVersion = kFormatVersion;

/// Serializes the WAL file header for `seed_hash`.
std::string EncodeWalHeader(uint64_t seed_hash);

/// Validates a WAL file's header and, when `version` is non-null,
/// stores its format version there (kWalVersion or kFormatV1).
/// kFailedPrecondition for a wrong magic/version or NameTable
/// generation; InvalidArgument when the file is shorter than a header
/// (torn header — recovery treats the whole file as truncated).
Status CheckWalHeader(std::string_view file, uint64_t seed_hash,
                      uint32_t* version = nullptr);

/// One parsed (still borrowed) WAL record.
struct WalRecord {
  uint64_t doc_id = 0;
  uint32_t element_count = 0;
  uint64_t block_bytes = 0;
  /// Format version of the log the record came from.
  uint32_t version = kWalVersion;
  /// Distinct (writer-side NameId, name string) pairs the block uses.
  std::vector<std::pair<NameId, std::string_view>> names;
  std::string_view block;  ///< raw FlatDoc block bytes
};

/// Encodes one record (framing included) for the given document.
std::string EncodeWalRecord(uint64_t doc_id, const FlatDoc& flat);

/// Parses records from `payload` (the file after its header, written
/// in format `version`) until the first torn or corrupt record; returns
/// the byte length of the valid prefix. Never fails: garbage simply
/// ends the prefix. Parsed records view `payload` — keep it alive while
/// they are used.
size_t ParseWalPayload(std::string_view payload,
                       std::vector<WalRecord>& records,
                       uint32_t version = kWalVersion);

/// Rebuilds an owned FlatDoc from a parsed record through
/// LoadBlockCopy, upgrading a v1 block and remapping NameIds through
/// the record's dictionary into the current process's NameTable when
/// the writer's ids differ. InvalidArgument when the block references a
/// NameId missing from its dictionary or fails structural validation.
StatusOr<std::unique_ptr<FlatDoc>> DecodeWalDocument(const WalRecord& record);

/// Append handle on one shard's log file. Not internally synchronized;
/// DurableRepository serializes appends per shard.
class WalWriter {
 public:
  /// Opens `path` for appending, creating it (with a fresh header) if
  /// missing or empty. The caller has already validated/recovered an
  /// existing file's contents.
  static StatusOr<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                   uint64_t seed_hash);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one encoded record; with `sync`, fdatasyncs before
  /// returning. Honors the wal.append.* crash points.
  Status Append(std::string_view record, bool sync);

  /// Truncates the log back to just its header and syncs — the tail of
  /// a checkpoint's snapshot/compact cycle.
  Status Truncate();

  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
};

}  // namespace storage
}  // namespace webre

#endif  // WEBRE_STORAGE_WAL_H_
