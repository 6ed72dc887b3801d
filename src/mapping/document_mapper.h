#ifndef WEBRE_MAPPING_DOCUMENT_MAPPER_H_
#define WEBRE_MAPPING_DOCUMENT_MAPPER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "schema/majority_schema.h"
#include "xml/dtd.h"
#include "xml/node.h"

namespace webre {

/// Report from a mapping run.
struct MappingReport {
  /// Elements whose label path was not in the schema: removed, with
  /// their children spliced into their place and their `val` text folded
  /// into the parent (no information loss).
  size_t nodes_removed = 0;
  /// Required schema children synthesized as empty elements.
  size_t nodes_inserted = 0;
  /// Sibling groups reordered to match the schema's child order.
  size_t reorder_moves = 0;
  /// Tree edit distance between the input document and the conformed
  /// output (a cost measure of the mapping). Filled by ConformToSchema;
  /// DocumentMapper::Conform does not price the edit and leaves it 0.
  double edit_distance = 0.0;
  /// Whether the output validates against the DTD.
  bool conforms = false;
};

/// The Document Mapping Component (§5, [11]/[13]): converts an XML
/// document that does not conform to the discovered majority schema into
/// one that does, using tree-edit operations:
///
///  1. *remove*: elements off the schema are spliced out (their children
///     move up, their `val` joins the parent's `val`), repeated to a
///     fixed point;
///  2. *reorder*: children are stably reordered to the schema's child
///     order (which the ordering rule made the majority order);
///  3. *merge*: when the DTD permits only a single occurrence of a
///     child, surplus occurrences are merged into the first (vals
///     concatenated, children appended);
///  4. *insert*: children the DTD requires (occurrence `one`/`+`) that
///     are absent are synthesized as empty elements.
///
/// The paper's observation that this "is only reasonable by using a
/// majority schema" is measurable here: against a Data Guide or
/// lower-bound schema the edit distance explodes (see bench_mapping).
struct ConformResult {
  std::unique_ptr<Node> document;
  MappingReport report;
};

/// The mapping compiled once for one (schema, DTD) pair, so a batch of
/// documents pays for schema and DTD lookups once: every schema node's
/// children are resolved to interned NameIds with their schema rank and
/// DTD occurrence, and each document step compares NameIds against that
/// table instead of strings.
///
/// Borrows `dtd` (Conform validates its output against it), which must
/// outlive the mapper; the schema is not referenced after construction.
/// Conform is const and safe to call from many threads at once.
class DocumentMapper {
 public:
  DocumentMapper(const MajoritySchema& schema, const Dtd& dtd);
  DocumentMapper(const MajoritySchema& schema, Dtd&& dtd) = delete;

  /// The conformed copy of `document`, and its report without the edit
  /// distance (ConformToSchema adds it).
  ConformResult Conform(const Node& document) const;

 private:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  // One compiled schema node. The children of a node are contiguous in
  // `nodes_`, in schema order, so a child's schema rank is its index
  // minus its parent's `first_child`.
  struct CompiledNode {
    NameId label = kInvalidNameId;
    uint32_t first_child = 0;
    uint32_t child_count = 0;
    /// Occurrence of this node in its parent's DTD content model.
    Occurrence occurrence = Occurrence::kOptional;
    /// The DTD declares this element with element content, so surplus
    /// children are merged and missing required ones inserted.
    bool shapes_children = false;
  };

  class Run;

  /// The child of compiled node `parent` labelled `name`, or kNone.
  uint32_t FindChild(uint32_t parent, NameId name) const;

  const Dtd& dtd_;
  std::vector<CompiledNode> nodes_;  // empty for an empty schema
  /// Id of the name "", or kInvalidNameId when nothing has that name.
  NameId empty_name_ = kInvalidNameId;
};

/// Maps one document: DocumentMapper(schema, dtd).Conform(document),
/// plus the tree edit distance from `document` to the result.
ConformResult ConformToSchema(const Node& document,
                              const MajoritySchema& schema, const Dtd& dtd);

}  // namespace webre

#endif  // WEBRE_MAPPING_DOCUMENT_MAPPER_H_
