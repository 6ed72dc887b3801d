#ifndef WEBRE_STORAGE_SNAPSHOT_H_
#define WEBRE_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "repository/path_index.h"
#include "repository/repository.h"
#include "storage/format.h"
#include "util/status.h"
#include "xml/flat_doc.h"
#include "xml/name_table.h"

namespace webre {
namespace storage {

/// Snapshot format v2 (DESIGN.md §14): one flat binary file mirroring
/// the repository's in-memory layout, so Open is an mmap plus
/// validation, not a parse.
///
///   header (40 bytes):
///     magic "WBRESNP1" | u32 version | u32 section_count
///     | u64 seed_hash | u64 doc_count
///     | u32 header_crc (over bytes [0,32) + the section table)
///     | u32 reserved
///   section table: section_count × 32 bytes
///     { u32 type | u32 pad | u64 offset | u64 size | u32 crc | u32 pad }
///     offsets are 8-aligned and ascending; crc is CRC32C of the
///     section's bytes.
///   sections:
///     NAMES (1):   u64 count | count × (u32 len | bytes) — the entire
///                  NameTable in id order, so a fresh process re-interns
///                  them and reproduces the writer's ids exactly.
///     DOCS (2):    u64 doc_count | doc_count × { u64 block_off (rel.
///                  to section start) | u64 block_bytes
///                  | u32 element_count | u32 pad } | 8-aligned raw
///                  FlatDoc blocks (v2 layout; a v1 file's blocks still
///                  carry the depth and lowered arrays).
///     SUMMARY (3): u64 entry_count | per entry { u32 parent | u32 name
///                  | u64 doc_count | u64 occ_count | docs as u64 each
///                  | occs as (u64 doc | u32 pos | u32 pad) } — the
///                  structural summary in creation order (parents
///                  precede children), loaded wholesale instead of
///                  re-fed per document.
///
/// seed_hash fingerprints the seeded NameTable vocabulary (FNV-1a over
/// the seeded names); a snapshot from a different seed generation is
/// rejected with kFailedPrecondition — its NameIds mean different
/// strings. A version other than v2 or v1 is likewise
/// kFailedPrecondition; structural corruption (bad magic, CRC, bounds)
/// is kInvalidArgument. A v1 file is read, never written: its blocks
/// are upgraded by copy (LoadBlockCopy), so none is served from the
/// mapping, and the next checkpoint writes v2.

inline constexpr uint32_t kSnapshotVersion = kFormatVersion;
inline constexpr size_t kSnapshotHeaderSize = 40;
inline constexpr uint32_t kSectionNames = 1;
inline constexpr uint32_t kSectionDocs = 2;
inline constexpr uint32_t kSectionSummary = 3;

/// FNV-1a fingerprint of the process's seeded NameTable vocabulary —
/// the "generation" both snapshot and WAL headers carry.
uint64_t SeedVocabularyHash();

/// Serializes the whole repository into snapshot-format bytes: the
/// stored FlatDoc blocks verbatim, plus the names and the summary. The
/// repository must be quiescent or externally locked against Add.
std::string BuildSnapshotImage(const XmlRepository& repo);

/// Writes `image` to `<dir>/snapshot.webre` crash-safely: temp file,
/// fsync, atomic rename, directory fsync. Honors the checkpoint.*
/// crash points between those steps.
Status WriteSnapshotFile(const std::string& dir, std::string_view image);

/// One document decoded (or viewed) from a snapshot.
struct LoadedDocument {
  uint32_t element_count = 0;
  /// Block bytes within the snapshot image (usable in place only when
  /// the file is v2, `identity_names` below is true and the image is a
  /// long-lived mapping).
  std::string_view block;
};

/// Decoded snapshot, still borrowing the image bytes.
struct LoadedSnapshot {
  /// The file's format version: kSnapshotVersion or kFormatV1.
  uint32_t version = kSnapshotVersion;
  /// True when re-interning the NAMES section reproduced every id —
  /// blocks are then servable as zero-copy views over the mapping.
  /// False means dynamic-name order differed; blocks must be copied
  /// with their leading NameId array rewritten through `name_map`.
  bool identity_names = true;
  /// Writer-side NameId → this process's NameId, for every stored name
  /// (so name_map[i].first == i).
  NameRemap name_map;
  std::vector<LoadedDocument> documents;

  struct SummaryEntry {
    uint32_t parent = 0;
    NameId name = kInvalidNameId;  ///< writer-side id; map before use
    std::vector<DocId> docs;
    std::vector<std::pair<DocId, uint32_t>> occurrences;  ///< (doc, pos)
  };
  std::vector<SummaryEntry> summary;
};

/// Validates and decodes `image`. Interns the NAMES section (the only
/// mutation — the global NameTable). kFailedPrecondition for a wrong
/// version or seed generation, kInvalidArgument for any structural or
/// checksum corruption; `out` is unspecified on error. Never reads out
/// of bounds regardless of input — fuzz_snapshot pins this.
Status LoadSnapshotImage(std::string_view image, LoadedSnapshot& out);

}  // namespace storage
}  // namespace webre

#endif  // WEBRE_STORAGE_SNAPSHOT_H_
