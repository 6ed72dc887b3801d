#include "restructure/consolidation_rule.h"

#include <algorithm>
#include <string>
#include <vector>

#include "html/tag_tables.h"
#include "restructure/grouping_rule.h"

namespace webre {
namespace {

class Consolidator {
 public:
  Consolidator(const ConceptSet& concepts, const ConstraintSet* constraints)
      : constraints_(constraints) {
    // Concept membership is tested once per element; resolve the set's
    // names to interned ids up front so the test is a binary search over
    // integers instead of a string hash per node.
    concept_ids_.reserve(concepts.concepts().size());
    for (const Concept& entry : concepts.concepts()) {
      concept_ids_.push_back(InternName(entry.name));
    }
    std::sort(concept_ids_.begin(), concept_ids_.end());
  }

  ConsolidationStats Run(Node* root) {
    // Bottom-up: consolidate children before deciding the parent's fate.
    // The root itself is preserved (the converter renames it).
    ConsolidateChildren(root);
    return stats_;
  }

 private:
  bool IsConceptNode(const Node& node) const {
    return node.is_element() &&
           std::binary_search(concept_ids_.begin(), concept_ids_.end(),
                              node.name_id());
  }

  // Detaches `node`'s children once and adds back, in order, what the
  // rule keeps of each: concept children as they are, non-concept
  // children eliminated (EliminateNonConcept).
  void ConsolidateChildren(Node* node) {
    if (node->child_count() == 0) return;
    std::vector<std::unique_ptr<Node>> children = node->RemoveAllChildren();
    node->ReserveChildren(children.size());
    for (std::unique_ptr<Node>& child : children) {
      if (child->is_text()) {
        // Defensive: stray text becomes parent val (the text rules
        // normally leave no text nodes behind).
        node->AppendVal(child->text());
        continue;
      }
      ConsolidateChildren(child.get());
      if (IsConceptNode(*child)) {
        node->AddChild(std::move(child));
      } else {
        EliminateNonConcept(node, std::move(child));
      }
    }
  }

  // Applies the rule to the non-concept element `node` taken from
  // `parent`, whose children are already consolidated: whatever replaces
  // it is appended to `parent`.
  void EliminateNonConcept(Node* parent, std::unique_ptr<Node> node) {
    if (node->child_count() == 0) {
      parent->AppendVal(node->val());
      ++stats_.nodes_deleted;
      return;
    }

    std::vector<std::unique_ptr<Node>> children = node->RemoveAllChildren();
    if (IsListTag(node->name_id()) || ChildrenShareOneName(children)) {
      // Push the children up, replacing the node. The node's accumulated
      // text goes to a sole child (it details that child's information,
      // cf. §2.3.1's child-details-parent principle) or, with several
      // children, to the parent.
      if (children.size() == 1 && children[0]->is_element()) {
        children[0]->AppendVal(node->val());
      } else {
        parent->AppendVal(node->val());
      }
      for (auto& child : children) parent->AddChild(std::move(child));
      ++stats_.nodes_pushed_up;
      return;
    }

    // Replace the node by its first concept child; the remaining
    // children become children of that child, in their relative order.
    const size_t chosen = ChooseReplacementChild(children);
    std::unique_ptr<Node> replacement = std::move(children[chosen]);
    replacement->AppendVal(node->val());
    for (auto& sibling : children) {
      if (sibling != nullptr) replacement->AddChild(std::move(sibling));
    }
    parent->AddChild(std::move(replacement));
    ++stats_.nodes_replaced;
  }

  // True when all children are elements sharing one name.
  static bool ChildrenShareOneName(
      const std::vector<std::unique_ptr<Node>>& children) {
    NameId name = kInvalidNameId;
    for (const auto& child : children) {
      if (!child->is_element()) return false;
      if (name == kInvalidNameId) {
        name = child->name_id();
      } else if (name != child->name_id()) {
        return false;
      }
    }
    return name != kInvalidNameId;
  }

  // Index of the first concept child that may become the parent of all
  // its siblings (per the constraint set); falls back to the first
  // concept child, then to 0.
  size_t ChooseReplacementChild(
      const std::vector<std::unique_ptr<Node>>& children) {
    const size_t count = children.size();
    size_t first_concept = count;
    for (size_t i = 0; i < count; ++i) {
      const Node* candidate = children[i].get();
      if (!IsConceptNode(*candidate)) continue;
      if (first_concept == count) first_concept = i;
      if (constraints_ == nullptr) return i;
      bool ok = true;
      for (size_t j = 0; j < count; ++j) {
        if (j == i) continue;
        const Node* other = children[j].get();
        if (other->is_element() &&
            !constraints_->AncestorAllowed(candidate->name_id(),
                                           other->name_id())) {
          ok = false;
          break;
        }
      }
      if (ok) return i;
      ++stats_.replacements_vetoed;
    }
    return first_concept < count ? first_concept : 0;
  }

  std::vector<NameId> concept_ids_;
  const ConstraintSet* constraints_;
  ConsolidationStats stats_;
};

}  // namespace

ConsolidationStats ApplyConsolidationRule(Node* root,
                                          const ConceptSet& concepts,
                                          const ConstraintSet* constraints) {
  if (root == nullptr) return {};
  return Consolidator(concepts, constraints).Run(root);
}

}  // namespace webre
