#ifndef WEBRE_MAPPING_ZHANG_SHASHA_H_
#define WEBRE_MAPPING_ZHANG_SHASHA_H_

// Internal to the mapping library: the Zhang–Shasha building blocks
// shared by TreeEditDistance and ComputeEditScript.

#include <vector>

#include "mapping/tree_edit.h"
#include "xml/node.h"

namespace webre {
namespace zhang_shasha {

/// Post-order flattening of an element tree (text nodes below the root
/// are skipped). Index 0 is padding; the nodes are 1..size(), so the
/// root is size().
class PostOrderTree {
 public:
  /// Rebuilds the flattening for `root`, reusing this object's buffers.
  /// Iterative, so a tree of any depth is safe.
  void Assign(const Node& root);

  int size() const { return static_cast<int>(nodes_.size()) - 1; }
  const Node* node(int i) const { return nodes_[static_cast<size_t>(i)]; }
  /// Interned label of node `i`; equal labels ⇔ equal names.
  NameId label(int i) const { return labels_[static_cast<size_t>(i)]; }
  /// Leftmost leaf descendant of node `i`.
  int lld(int i) const { return lld_[static_cast<size_t>(i)]; }
  /// Nodes with no larger node sharing their leftmost leaf, ascending.
  const std::vector<int>& keyroots() const { return keyroots_; }

 private:
  struct Frame {
    const Node* node;
    size_t next_child;
    int first_leaf;
  };

  std::vector<const Node*> nodes_;
  std::vector<NameId> labels_;
  std::vector<int> lld_;
  std::vector<int> keyroots_;
  std::vector<Frame> stack_;
  std::vector<int> last_with_lld_;
};

/// Fills the forest-distance table of the subtree pair (i, j), row-major
/// with stride ForestWidth(b, j): cell [x][y] prices source forest
/// lld(i)..lld(i)+x-1 against target forest lld(j)..lld(j)+y-1. `fd`
/// must hold ForestSize(a, i, b, j) cells.
///
/// Every cell whose two forests are whole subtrees is also stored into
/// `treedist` (row-major, stride b.size() + 1); other cells read the
/// tree distances of earlier subtree pairs from it. Visiting the keyroot
/// pairs in ascending order fills the whole `treedist`; refilling any
/// pair afterwards rewrites the values already there.
void ForestDistance(const PostOrderTree& a, const PostOrderTree& b, int i,
                    int j, const TreeEditCosts& costs, double* fd,
                    double* treedist);

inline int ForestWidth(const PostOrderTree& b, int j) {
  return j - b.lld(j) + 2;
}

inline size_t ForestSize(const PostOrderTree& a, int i,
                         const PostOrderTree& b, int j) {
  return static_cast<size_t>(i - a.lld(i) + 2) *
         static_cast<size_t>(ForestWidth(b, j));
}

}  // namespace zhang_shasha
}  // namespace webre

#endif  // WEBRE_MAPPING_ZHANG_SHASHA_H_
