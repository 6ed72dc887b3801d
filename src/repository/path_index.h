#ifndef WEBRE_REPOSITORY_PATH_INDEX_H_
#define WEBRE_REPOSITORY_PATH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "xml/flat_doc.h"
#include "xml/name_table.h"

namespace webre {

/// Identifier of a stored document.
using DocId = size_t;

/// One indexed element: where a distinct label path occurs.
struct PathOccurrence {
  DocId doc = 0;
  /// Pre-order index of the element among the document's elements —
  /// the document-order sort key, unique within a document, and the
  /// element's index into `flat`.
  uint32_t pos = 0;
  /// The frozen document owning `pos`.
  const FlatDoc* flat = nullptr;
};

static_assert(sizeof(PathOccurrence) == sizeof(DocId) + 8 + sizeof(void*),
              "PathOccurrence layout mirrors QueryMatch so the summary "
              "plan's emit loop is a straight field copy");

/// One document's distinct label paths with the elements realizing
/// them, produced by a single pre-order walk. The string labels are
/// never materialized: a path is its parent link plus one NameId,
/// exactly the shape PathIndex ingests.
struct LocalDocumentPaths {
  static constexpr uint32_t kNoParent = 0xFFFFFFFFu;

  struct Path {
    uint32_t parent = kNoParent;  ///< index into `paths`; parents first
    NameId name = kInvalidNameId;
    /// Pre-order position per occurrence, ascending.
    std::vector<uint32_t> occurrences;
  };

  std::vector<Path> paths;
  size_t element_count = 0;
};

/// Groups a frozen document's elements by distinct root-emanating label
/// path: one linear pass resolving each element's path from its
/// parent's (pre-order guarantees parents come first).
LocalDocumentPaths CollectLocalPaths(const FlatDoc& doc);

/// A DataGuide-style structural summary: the trie of every distinct
/// label path seen across the indexed documents, hash-consed on
/// (parent path id, NameId) exactly like schema extraction's PathTable,
/// with an inverted posting list per path. Every path also keeps its
/// realizing elements and their values as one contiguous column (the
/// containers-per-path layout of XMill), which lets the repository
/// answer structural queries and seed `[val~…]` predicates without
/// touching any document.
///
/// Not internally synchronized: the owner serializes writers and
/// brackets readers (XmlRepository guards each instance with a
/// shared_mutex).
class PathIndex {
 public:
  /// "No such path" — also the parent marker of root paths.
  static constexpr uint32_t kNoPath = 0xFFFFFFFFu;

  struct Entry {
    uint32_t parent = kNoPath;
    NameId name = kInvalidNameId;
    /// Child path ids, in creation order.
    std::vector<uint32_t> children;
    /// Documents containing this path, ascending, deduplicated.
    std::vector<DocId> docs;
    /// Every element realizing this path, ordered by (doc, pos).
    std::vector<PathOccurrence> occurrences;
    /// The path's value column: the raw `val`s of `occurrences`,
    /// concatenated in occurrence order (predicates scan it with the
    /// case-folding FindLowered). Derived data — rebuilt from the
    /// documents at AddDocument/LoadEntry, never persisted.
    std::string column;
    /// occurrences.size() + 1 offsets into `column`: occurrence i's
    /// value is [column_off[i], column_off[i + 1]). 64-bit, so no
    /// column size a document set can reach wraps them.
    std::vector<uint64_t> column_off{0};
  };

  PathIndex() = default;

  PathIndex(const PathIndex&) = delete;
  PathIndex& operator=(const PathIndex&) = delete;

  /// Indexes one document's paths. Documents may arrive in any id
  /// order (concurrent Adds race to the summary); posting lists,
  /// occurrences and value columns stay sorted — the document's run is
  /// spliced in at its id (a plain append when ids arrive in order).
  /// A document must be added at most once. `flat`, the frozen
  /// document `local` describes, is stamped onto every occurrence and
  /// supplies the values.
  void AddDocument(const LocalDocumentPaths& local, DocId doc,
                   const FlatDoc& flat);

  /// Storage restore: appends the entry with id == path_count(),
  /// rebuilding the children/roots lists and the hash table from the
  /// (parent, name) pair and the value column (exactly sized) from the
  /// occurrences' values. The snapshot's SUMMARY
  /// section stores entries in creation order, where parents precede
  /// children, so a loader feeding entries in file order never sees a
  /// dangling parent. `docs` must be ascending and deduplicated and
  /// `occurrences` (doc, pos)-ascending with docs drawn from `docs` —
  /// violations (a corrupt or hostile snapshot) are InvalidArgument,
  /// keeping every later query-plan merge loop safe.
  Status LoadEntry(uint32_t parent, NameId name, std::vector<DocId> docs,
                   std::vector<PathOccurrence> occurrences);

  size_t path_count() const { return entries_.size(); }
  const Entry& entry(uint32_t id) const { return entries_[id]; }
  /// Root path ids (paths of length 1), in creation order.
  const std::vector<uint32_t>& roots() const { return roots_; }

  /// Id of the root-emanating path labels[0]/…/labels[count-1], or
  /// kNoPath when no indexed document contains it.
  uint32_t FindPath(const NameId* labels, size_t count) const;

  /// Posting list of `id`; the shared empty sentinel for kNoPath. The
  /// reference is stable only until the next AddDocument.
  const std::vector<DocId>& DocsOf(uint32_t id) const {
    return id == kNoPath ? EmptyDocs() : entries_[id].docs;
  }

  static const std::vector<DocId>& EmptyDocs();

 private:
  uint32_t Resolve(uint32_t parent, NameId name);        // inserts
  uint32_t Lookup(uint32_t parent, NameId name) const;   // never inserts
  void Rehash(size_t new_slots);

  static uint64_t Mix(uint64_t key);

  std::vector<Entry> entries_;
  std::vector<uint32_t> roots_;

  // Open-addressing map (parent << 32 | name) -> entry id; the all-ones
  // key cannot occur (elements never carry kInvalidNameId) and marks an
  // empty slot.
  static constexpr uint64_t kEmptySlot = 0xFFFFFFFFFFFFFFFFull;
  static constexpr size_t kInitialSlots = 128;  // power of two
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> values_;
  size_t mask_ = 0;
  size_t used_ = 0;
};

}  // namespace webre

#endif  // WEBRE_REPOSITORY_PATH_INDEX_H_
