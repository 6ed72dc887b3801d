#include "mapping/document_mapper.h"

#include <string_view>
#include <utility>
#include <vector>

#include "mapping/tree_edit.h"
#include "xml/dtd_validator.h"

namespace webre {
namespace {

// Occurrence of child `name` in `decl`'s (sequence) content model.
Occurrence ChildOccurrence(const ElementDecl& decl, std::string_view name) {
  for (const ContentParticle& p : decl.content.children) {
    if (p.kind == ContentParticle::Kind::kElement && p.name == name) {
      return p.occurrence;
    }
  }
  return Occurrence::kOptional;  // undeclared: treat as optional
}

}  // namespace

DocumentMapper::DocumentMapper(const MajoritySchema& schema, const Dtd& dtd)
    : dtd_(dtd) {
  if (schema.empty()) return;
  // Breadth-first, so that every node's children are contiguous.
  std::vector<const SchemaNode*> source = {&schema.root()};
  nodes_.push_back({InternName(schema.root().label)});
  for (size_t i = 0; i < source.size(); ++i) {
    const SchemaNode& schema_node = *source[i];
    const ElementDecl* decl = dtd.Find(schema_node.label);
    nodes_[i].shapes_children = decl != nullptr && !decl->pcdata_only;
    nodes_[i].first_child = static_cast<uint32_t>(nodes_.size());
    nodes_[i].child_count = static_cast<uint32_t>(schema_node.children.size());
    for (const SchemaNode& child : schema_node.children) {
      CompiledNode compiled;
      compiled.label = InternName(child.label);
      if (decl != nullptr) {
        compiled.occurrence = ChildOccurrence(*decl, child.label);
      }
      nodes_.push_back(compiled);
      source.push_back(&child);
    }
  }
  empty_name_ = NameTable::Global().Find("");
}

uint32_t DocumentMapper::FindChild(uint32_t parent, NameId name) const {
  const CompiledNode& node = nodes_[parent];
  for (uint32_t c = node.first_child; c < node.first_child + node.child_count;
       ++c) {
    if (nodes_[c].label == name) return c;  // the first wins, as FindChild
  }
  return kNone;
}

// One document's mapping: the edit steps of the Document Mapping
// Component against the compiled schema, and the report they add up to.
class DocumentMapper::Run {
 public:
  explicit Run(const DocumentMapper& mapper) : mapper_(mapper) {}

  void MapNode(Node* node, uint32_t index) {
    const CompiledNode& compiled = mapper_.nodes_[index];
    SpliceOffSchema(node, index);
    Reorder(node, index);
    if (compiled.shapes_children) {
      MergeSurplus(node, index);
      InsertMissing(node, compiled);
    }
    for (size_t i = 0; i < node->child_count(); ++i) {
      Node* child = node->child(i);
      if (!child->is_element()) continue;
      const uint32_t child_index = mapper_.FindChild(index, child->name_id());
      if (child_index != kNone) MapNode(child, child_index);
    }
  }

  MappingReport report;

 private:
  // Step 1: splice out children not allowed here. A spliced child's
  // children take its place and are checked next, so one pass leaves
  // only schema children.
  void SpliceOffSchema(Node* node, uint32_t index) {
    for (size_t i = 0; i < node->child_count();) {
      Node* child = node->child(i);
      if (!child->is_element() ||
          mapper_.FindChild(index, child->name_id()) != kNone) {
        ++i;
        continue;
      }
      // Off-schema: splice children up, fold text into parent.
      node->AppendVal(child->val());
      std::vector<std::unique_ptr<Node>> grandchildren =
          child->RemoveAllChildren();
      node->RemoveChild(i);
      size_t insert_at = i;
      for (auto& gc : grandchildren) {
        node->InsertChild(insert_at++, std::move(gc));
      }
      ++report.nodes_removed;
    }
  }

  // Step 2: stable reorder to schema child order, one bucket per rank.
  void Reorder(Node* node, uint32_t index) {
    const CompiledNode& compiled = mapper_.nodes_[index];
    const size_t count = node->child_count();
    // Children off the schema rank after every schema child.
    const uint32_t unranked = compiled.child_count;
    ranks_.resize(count);
    uint32_t last_rank = 0;
    size_t moves = 0;
    for (size_t i = 0; i < count; ++i) {
      // A text node ranks by its name "", as the string compare did.
      const Node& node_child = *node->child(i);
      const uint32_t child = mapper_.FindChild(
          index, node_child.is_element() ? node_child.name_id()
                                         : mapper_.empty_name_);
      const uint32_t rank =
          child == kNone ? unranked : child - compiled.first_child;
      if (rank < last_rank) ++moves;
      last_rank = rank;
      ranks_[i] = rank;
    }
    if (moves == 0) return;  // already in schema order
    report.reorder_moves += moves;
    bucket_begin_.assign(static_cast<size_t>(unranked) + 2, 0);
    for (size_t i = 0; i < count; ++i) ++bucket_begin_[ranks_[i] + 1];
    for (size_t r = 1; r < bucket_begin_.size(); ++r) {
      bucket_begin_[r] += bucket_begin_[r - 1];
    }
    std::vector<std::unique_ptr<Node>> children = node->RemoveAllChildren();
    sorted_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      sorted_[bucket_begin_[ranks_[i]]++] = std::move(children[i]);
    }
    for (auto& child : sorted_) node->AddChild(std::move(child));
    sorted_.clear();
  }

  // Step 3: merge surplus occurrences when the DTD allows only one.
  void MergeSurplus(Node* node, uint32_t index) {
    for (size_t i = 0; i < node->child_count(); ++i) {
      Node* first = node->child(i);
      if (!first->is_element()) continue;
      // After the splice every element child is a schema child.
      const uint32_t child = mapper_.FindChild(index, first->name_id());
      const Occurrence occ = child == kNone
                                 ? Occurrence::kOptional
                                 : mapper_.nodes_[child].occurrence;
      if (occ == Occurrence::kPlus || occ == Occurrence::kStar) continue;
      // Merge any later sibling with the same name into `first`.
      for (size_t j = i + 1; j < node->child_count();) {
        Node* other = node->child(j);
        if (other->is_element() && other->name_id() == first->name_id()) {
          first->AppendVal(other->val());
          std::vector<std::unique_ptr<Node>> moved =
              other->RemoveAllChildren();
          for (auto& m : moved) first->AddChild(std::move(m));
          node->RemoveChild(j);
          ++report.nodes_removed;
        } else {
          ++j;
        }
      }
    }
  }

  // Step 4: insert required-but-missing children, in schema order.
  void InsertMissing(Node* node, const CompiledNode& compiled) {
    size_t insert_at = 0;
    for (uint32_t c = compiled.first_child;
         c < compiled.first_child + compiled.child_count; ++c) {
      const CompiledNode& schema_child = mapper_.nodes_[c];
      // Find this label among the current children.
      bool present = false;
      for (size_t i = 0; i < node->child_count(); ++i) {
        if (IsElementNamed(*node->child(i), schema_child.label)) {
          present = true;
          // Skip past the run of this label.
          size_t j = i;
          while (j < node->child_count() &&
                 IsElementNamed(*node->child(j), schema_child.label)) {
            ++j;
          }
          insert_at = j;
          break;
        }
      }
      if (present) continue;
      if (schema_child.occurrence == Occurrence::kOptional ||
          schema_child.occurrence == Occurrence::kStar) {
        continue;
      }
      node->InsertChild(insert_at++, Node::MakeElement(schema_child.label));
      ++report.nodes_inserted;
    }
  }

  static bool IsElementNamed(const Node& node, NameId name) {
    return node.is_element() && node.name_id() == name;
  }

  const DocumentMapper& mapper_;
  // Reorder scratch, reused across the document's nodes.
  std::vector<uint32_t> ranks_;
  std::vector<size_t> bucket_begin_;
  std::vector<std::unique_ptr<Node>> sorted_;
};

ConformResult DocumentMapper::Conform(const Node& document) const {
  ConformResult result;
  result.document = document.Clone();
  Node* root = result.document.get();
  if (nodes_.empty()) {
    result.report.conforms = ConformsToDtd(*root, dtd_);
    return result;
  }
  Run run(*this);
  // The root label must match the schema root; relabel if needed.
  if (root->name_id() != nodes_[0].label) {
    root->set_name(nodes_[0].label);
    ++run.report.nodes_removed;  // counted as one relabel-ish operation
  }
  run.MapNode(root, 0);
  result.report = run.report;
  result.report.conforms = ConformsToDtd(*root, dtd_);
  return result;
}

ConformResult ConformToSchema(const Node& document,
                              const MajoritySchema& schema, const Dtd& dtd) {
  ConformResult result = DocumentMapper(schema, dtd).Conform(document);
  if (!schema.empty()) {
    result.report.edit_distance =
        TreeEditDistance(document, *result.document);
  }
  return result;
}

}  // namespace webre
