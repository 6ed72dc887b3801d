#ifndef WEBRE_TESTS_DOCUMENT_MAPPER_ORACLE_H_
#define WEBRE_TESTS_DOCUMENT_MAPPER_ORACLE_H_

// Test oracle: the string-keyed Document Mapping Component that
// DocumentMapper replaced — schema lookups by FindChild, a comparison
// sort ranking children by label, and a DTD lookup per node. The
// compiled mapper must produce the same bytes and the same report on
// every input (mapping_differential_test).

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mapping/document_mapper.h"
#include "tree_edit_oracle.h"
#include "xml/dtd_validator.h"

namespace webre {
namespace oracle {

class Mapper {
 public:
  Mapper(const MajoritySchema& schema, const Dtd& dtd)
      : schema_(schema), dtd_(dtd) {}

  ConformResult Run(const Node& document) {
    ConformResult result;
    result.document = document.Clone();
    Node* root = result.document.get();
    if (schema_.empty()) {
      result.report.edit_distance = 0.0;
      result.report.conforms = ConformsToDtd(*root, dtd_);
      return result;
    }
    // The root label must match the schema root; relabel if needed.
    if (root->name() != schema_.root().label) {
      root->set_name(schema_.root().label);
      ++report_.nodes_removed;  // counted as one relabel-ish operation
    }
    MapNode(root, schema_.root());
    report_.edit_distance = oracle::TreeEditDistance(document, *root);
    report_.conforms = ConformsToDtd(*root, dtd_);
    result.report = report_;
    return result;
  }

 private:
  // Step 1: splice out children not allowed under `schema_node`,
  // repeatedly, so grandchildren get reconsidered at this level.
  void SpliceOffSchema(Node* node, const SchemaNode& schema_node) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < node->child_count();) {
        Node* child = node->child(i);
        if (!child->is_element()) {
          ++i;
          continue;
        }
        if (schema_node.FindChild(child->name()) != nullptr) {
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
        ++report_.nodes_removed;
        changed = true;
      }
    }
  }

  // Step 2: stable reorder to schema child order.
  void Reorder(Node* node, const SchemaNode& schema_node) {
    auto rank = [&](const Node& child) {
      for (size_t r = 0; r < schema_node.children.size(); ++r) {
        if (schema_node.children[r].label == child.name()) return r;
      }
      return schema_node.children.size();
    };
    // Count inversions (groups out of order) before sorting, for the
    // report.
    std::vector<std::unique_ptr<Node>> children = node->RemoveAllChildren();
    size_t last_rank = 0;
    size_t moves = 0;
    for (const auto& child : children) {
      const size_t r = rank(*child);
      if (r < last_rank) ++moves;
      last_rank = r;
    }
    report_.reorder_moves += moves;
    std::stable_sort(children.begin(), children.end(),
                     [&](const std::unique_ptr<Node>& a,
                         const std::unique_ptr<Node>& b) {
                       return rank(*a) < rank(*b);
                     });
    for (auto& child : children) node->AddChild(std::move(child));
  }

  // Step 3: merge surplus occurrences when the DTD allows only one.
  void MergeSurplus(Node* node) {
    const ElementDecl* decl = dtd_.Find(node->name());
    if (decl == nullptr || decl->pcdata_only) return;
    for (size_t i = 0; i < node->child_count(); ++i) {
      Node* first = node->child(i);
      if (!first->is_element()) continue;
      const Occurrence occ = ChildOccurrence(*decl, first->name());
      if (occ == Occurrence::kPlus || occ == Occurrence::kStar) continue;
      // Merge any later sibling with the same name into `first`.
      for (size_t j = i + 1; j < node->child_count();) {
        Node* other = node->child(j);
        if (other->is_element() && other->name() == first->name()) {
          first->AppendVal(other->val());
          std::vector<std::unique_ptr<Node>> moved =
              other->RemoveAllChildren();
          for (auto& m : moved) first->AddChild(std::move(m));
          node->RemoveChild(j);
          ++report_.nodes_removed;
        } else {
          ++j;
        }
      }
    }
  }

  // Step 4: insert required-but-missing children, in schema order.
  void InsertMissing(Node* node, const SchemaNode& schema_node) {
    const ElementDecl* decl = dtd_.Find(node->name());
    if (decl == nullptr || decl->pcdata_only) return;
    size_t insert_at = 0;
    for (const SchemaNode& schema_child : schema_node.children) {
      // Find this label among current children at/after insert_at.
      bool present = false;
      for (size_t i = 0; i < node->child_count(); ++i) {
        const Node* child = node->child(i);
        if (child->is_element() && child->name() == schema_child.label) {
          present = true;
          // Skip past the run of this label.
          size_t j = i;
          while (j < node->child_count() &&
                 node->child(j)->is_element() &&
                 node->child(j)->name() == schema_child.label) {
            ++j;
          }
          insert_at = j;
          break;
        }
      }
      if (present) continue;
      const Occurrence occ = ChildOccurrence(*decl, schema_child.label);
      if (occ == Occurrence::kOptional || occ == Occurrence::kStar) continue;
      node->InsertChild(insert_at++,
                        Node::MakeElement(schema_child.label));
      ++report_.nodes_inserted;
    }
  }

  void MapNode(Node* node, const SchemaNode& schema_node) {
    SpliceOffSchema(node, schema_node);
    Reorder(node, schema_node);
    MergeSurplus(node);
    InsertMissing(node, schema_node);
    for (size_t i = 0; i < node->child_count(); ++i) {
      Node* child = node->child(i);
      if (!child->is_element()) continue;
      const SchemaNode* schema_child =
          schema_node.FindChild(child->name());
      if (schema_child != nullptr) MapNode(child, *schema_child);
    }
  }

  // Occurrence of child `name` in `decl`'s (sequence) content model.
  static Occurrence ChildOccurrence(const ElementDecl& decl,
                                    std::string_view name) {
    for (const ContentParticle& p : decl.content.children) {
      if (p.kind == ContentParticle::Kind::kElement && p.name == name) {
        return p.occurrence;
      }
    }
    return Occurrence::kOptional;  // undeclared: treat as optional
  }

  const MajoritySchema& schema_;
  const Dtd& dtd_;
  MappingReport report_;
};

/// The oracle's ConformToSchema, edit distance included.
inline ConformResult ConformToSchema(const Node& document,
                                     const MajoritySchema& schema,
                                     const Dtd& dtd) {
  return Mapper(schema, dtd).Run(document);
}

}  // namespace oracle
}  // namespace webre

#endif  // WEBRE_TESTS_DOCUMENT_MAPPER_ORACLE_H_
