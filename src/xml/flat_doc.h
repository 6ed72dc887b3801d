#ifndef WEBRE_XML_FLAT_DOC_H_
#define WEBRE_XML_FLAT_DOC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "util/status.h"
#include "xml/name_table.h"
#include "xml/node.h"

namespace webre {

/// Read-only structure-of-arrays form of one element tree, frozen at
/// repository admission (XmlRepository::Add) so the mutable pointer
/// tree — and its NodeArena — can be released while serving continues
/// from one tightly-sized contiguous block per document.
///
/// Layout (one allocation, arrays parallel over the document's elements
/// in pre-order; text nodes are not represented — queries address only
/// elements and their `val` attribute):
///
///   name[i]         interned NameId of element i
///   parent[i]       pre-order index of i's parent (kNoParent for root)
///   subtree_end[i]  one past the last pre-order index in i's subtree,
///                   so i's descendants are exactly [i+1, subtree_end[i])
///   text_off[i]     byte offset of element i's val in the text pool
///                   (element_count + 1 entries; slices are adjacent)
///   text            concatenated raw val bytes; a [val~"…"] predicate
///                   is a linear case-folding substring scan over them
///                   (FindLowered lowers the haystack as it goes)
///
/// Traversal idioms (all index arithmetic, no pointers):
///   children of e:     for (f = e + 1; f < subtree_end(e); f = subtree_end(f))
///   descendants of e:  every index in [e + 1, subtree_end(e))
///
/// A FlatDoc is immutable after Freeze and safe to read from any number
/// of threads once published (the repository publishes it under its
/// locks; readers then need no lock at all).
class FlatDoc {
 public:
  /// Parent marker of the root element.
  static constexpr uint32_t kNoParent = 0xFFFFFFFFu;
  /// Largest element count a block may claim; keeps every block size
  /// computation far from overflow, even on 32-bit size_t.
  static constexpr uint32_t kMaxElements = 1u << 28;

  /// Builds the flat form of `root`'s element tree. `root` must be an
  /// element; the walk is iterative, so pathological depth cannot
  /// overflow the C++ stack. The source tree is untouched (and no
  /// longer needed afterwards).
  static std::unique_ptr<FlatDoc> Freeze(const Node& root);

  /// Reconstructs a FlatDoc from the exact bytes block_data() exposes
  /// (the storage layer's WAL records and snapshot DOCS section carry
  /// them verbatim). The block is structurally validated — parent links
  /// acyclic and in-range, subtree ranges nested, text offsets
  /// monotonic, every NameId below `name_limit` — so a corrupted or
  /// hostile block yields InvalidArgument, never out-of-range reads
  /// later. Takes ownership of `block` (which must hold `block_bytes`).
  static StatusOr<std::unique_ptr<FlatDoc>> FromOwnedBlock(
      std::unique_ptr<char[]> block, size_t block_bytes,
      uint32_t element_count, NameId name_limit);

  /// Same validation over externally-owned bytes (an mmap-ed snapshot):
  /// the FlatDoc becomes a non-owning *view* — zero copy, near-zero
  /// warmup — and `data` must stay mapped and unchanged for the
  /// FlatDoc's lifetime. `data` must be 4-byte aligned (the snapshot
  /// format 8-aligns blocks; misalignment is rejected, callers then
  /// fall back to a copying load).
  static StatusOr<std::unique_ptr<FlatDoc>> FromMappedBlock(
      const char* data, size_t block_bytes, uint32_t element_count,
      NameId name_limit);

  FlatDoc(const FlatDoc&) = delete;
  FlatDoc& operator=(const FlatDoc&) = delete;

  /// Elements in the document (pre-order indices are [0, element_count)).
  uint32_t element_count() const { return count_; }

  NameId name(uint32_t i) const { return names_[i]; }
  /// The element's name string (views the process-wide NameTable).
  std::string_view name_view(uint32_t i) const {
    return NameTable::Global().NameOf(names_[i]);
  }
  uint32_t parent(uint32_t i) const { return parents_[i]; }
  /// One past the last pre-order index of i's subtree (i's descendants
  /// are [i + 1, subtree_end(i)); i's next sibling starts there).
  uint32_t subtree_end(uint32_t i) const { return subtree_end_[i]; }

  /// Element i's `val` attribute (empty if it had none). Views the
  /// frozen text pool: stable for the FlatDoc's lifetime.
  std::string_view val(uint32_t i) const {
    return std::string_view(text_ + text_off_[i],
                            text_off_[i + 1] - text_off_[i]);
  }
  /// The entire raw text pool — element i's val occupies bytes
  /// [text_offsets()[i], text_offsets()[i+1]), and slices are adjacent
  /// with no separators. The repository's predicate engine scans this
  /// whole pool in one SIMD pass and maps hits back to elements through
  /// text_offsets() (repository/predicate.h); a hit straddling two
  /// adjacent slices is rejected there, never here.
  std::string_view text_pool() const {
    return std::string_view(text_, text_off_[count_]);
  }
  /// The text-offset array backing val(): element_count() + 1 ascending
  /// entries, text_off[0] == 0 and text_off[element_count()] == pool
  /// size.
  const uint32_t* text_offsets() const { return text_off_; }

  /// Bytes of the single backing block (the document's entire
  /// steady-state footprint; exported as mem.flat_bytes).
  size_t block_bytes() const { return block_bytes_; }

  /// The backing block's raw bytes ([block_data, block_data +
  /// block_bytes)); with element_count they are sufficient to rebuild
  /// the document via FromOwnedBlock — the storage serialization
  /// surface. Layout (format v2): names, parents, subtree_end (count
  /// u32s each), text_off (count+1 u32s), raw text pool.
  const char* block_data() const {
    return reinterpret_cast<const char*>(names_);
  }

  /// True when this FlatDoc views externally-owned bytes (a mapped
  /// snapshot) instead of owning its block.
  bool is_view() const { return block_ == nullptr; }

 private:
  FlatDoc() = default;

  /// Wires the array pointers into `base` (owned or mapped) and
  /// validates every structural invariant. Returns InvalidArgument on
  /// the first violation.
  Status InitFromBlock(const char* base, size_t block_bytes,
                       uint32_t element_count, NameId name_limit);

  uint32_t count_ = 0;
  size_t block_bytes_ = 0;
  std::unique_ptr<char[]> block_;
  const NameId* names_ = nullptr;
  const uint32_t* parents_ = nullptr;
  const uint32_t* subtree_end_ = nullptr;
  const uint32_t* text_off_ = nullptr;
  const char* text_ = nullptr;
};

}  // namespace webre

#endif  // WEBRE_XML_FLAT_DOC_H_
