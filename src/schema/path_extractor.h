#ifndef WEBRE_SCHEMA_PATH_EXTRACTOR_H_
#define WEBRE_SCHEMA_PATH_EXTRACTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "schema/label_path.h"
#include "xml/flat_doc.h"
#include "xml/name_table.h"
#include "xml/node.h"

namespace webre {

/// Everything schema discovery needs to know about one XML document
/// (§3.2): its *set* of root-emanating label paths — deduplicated so
/// that discovery "is not too biased towards multiple occurrences of the
/// same path in only a very few documents" — plus two side statistics
/// recorded "without computational overhead" during the same walk:
///
///  - `max_multiplicity[i]`: the largest number of same-label siblings
///    the leaf of path i has anywhere in the document (the ⟨p, num⟩ of
///    the repetitive-elements rule);
///  - `position_sum[i]` / `position_count[i]`: accumulated child indices
///    of the leaf of path i among its parent's element children (the
///    ordering rule's "average position").
///
/// A path is its parent link plus one interned leaf name; no label
/// string is built (LabelPathAt renders one on demand). All vectors are
/// parallel and indexed by path position. Callers assembling
/// DocumentPaths by hand fill `parent_index` and `leaf_name` and may
/// leave the statistics vectors empty (FrequentPathMiner treats missing
/// statistics as "none recorded").
struct DocumentPaths {
  /// Sentinel for `parent_index` entries that have no parent (roots).
  static constexpr uint32_t kNoParentPath = 0xFFFFFFFFu;
  /// Distinct label paths in document pre-order, root first (the root's
  /// one-element path is included): index of the path one label shorter
  /// (the parent path), or kNoParentPath for the root path. Parents
  /// always precede their children, so consumers rebuild the whole path
  /// set as a NameId trie in one forward pass.
  std::vector<uint32_t> parent_index;
  /// Parallel to `parent_index`: the interned NameId of the path's last
  /// label.
  std::vector<NameId> leaf_name;
  /// Parallel; 0 means the leaf never appeared as a counted sibling
  /// (hand-built inputs).
  std::vector<size_t> max_multiplicity;
  /// Parallel; position_count[i] == 0 means no ordering statistic was
  /// recorded for path i.
  std::vector<double> position_sum;
  std::vector<size_t> position_count;

  /// Number of distinct paths.
  size_t size() const { return parent_index.size(); }
};

/// The label strings of path `i`, root first (tests, benches, printing).
LabelPath LabelPathAt(const DocumentPaths& paths, size_t i);

/// Extracts paths(T) and the side statistics from the document rooted at
/// `root`. Text nodes are ignored; only element labels form paths.
DocumentPaths ExtractPaths(const Node& root);

/// The same extraction over a frozen document. Produces a DocumentPaths
/// bit-identical to ExtractPaths on the tree the FlatDoc was frozen
/// from (same emit order, multiplicities and position statistics), so
/// XmlRepository::DiscoverSchema mines its stored documents — whether
/// admitted live, replayed from the WAL or mapped from a snapshot —
/// exactly as a miner fed the original trees would
/// (tests/storage_test.cc pins the equivalence).
DocumentPaths ExtractPaths(const FlatDoc& doc);

}  // namespace webre

#endif  // WEBRE_SCHEMA_PATH_EXTRACTOR_H_
