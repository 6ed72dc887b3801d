#ifndef WEBRE_TESTS_TREE_EDIT_ORACLE_H_
#define WEBRE_TESTS_TREE_EDIT_ORACLE_H_

// Test oracle: the recursive, string-labelled, nested-vector Zhang–Shasha
// kernel that TreeEditDistance replaced. The flat kernel must return
// exactly the same double on every input (tree_edit_differential_test).

#include <algorithm>
#include <string>
#include <vector>

#include "mapping/tree_edit.h"
#include "xml/node.h"

namespace webre {
namespace oracle {
namespace tree_edit_detail {

// Post-order flattening of an element tree (text nodes skipped).
struct FlatTree {
  std::vector<std::string> labels;  // 1-based: labels[1..n]
  std::vector<int> lld;             // leftmost leaf descendant, 1-based
  std::vector<int> keyroots;        // ascending

  int size() const { return static_cast<int>(labels.size()) - 1; }
};

inline int Flatten(const Node& node, FlatTree& out) {
  int first_leaf = -1;
  for (size_t i = 0; i < node.child_count(); ++i) {
    const Node* child = node.child(i);
    if (!child->is_element()) continue;
    int child_lld = Flatten(*child, out);
    if (first_leaf < 0) first_leaf = child_lld;
  }
  out.labels.emplace_back(node.name());
  const int index = static_cast<int>(out.labels.size()) - 1;
  out.lld.push_back(first_leaf < 0 ? index : first_leaf);
  return out.lld.back();
}

inline FlatTree MakeFlat(const Node& root) {
  FlatTree flat;
  flat.labels.emplace_back();  // 1-based padding
  flat.lld.push_back(0);
  Flatten(root, flat);
  // Keyroots: nodes i such that no j > i has lld(j) == lld(i).
  const int n = flat.size();
  std::vector<bool> seen(static_cast<size_t>(n) + 1, false);
  for (int i = n; i >= 1; --i) {
    const int l = flat.lld[static_cast<size_t>(i)];
    if (!seen[static_cast<size_t>(l)]) {
      flat.keyroots.push_back(i);
      seen[static_cast<size_t>(l)] = true;
    }
  }
  std::sort(flat.keyroots.begin(), flat.keyroots.end());
  return flat;
}

}  // namespace tree_edit_detail

/// Ordered tree edit distance, computed the straightforward way.
inline double TreeEditDistance(const Node& a, const Node& b,
                               const TreeEditCosts& costs = {}) {
  using namespace tree_edit_detail;
  const FlatTree ta = MakeFlat(a);
  const FlatTree tb = MakeFlat(b);
  const int n = ta.size();
  const int m = tb.size();
  if (n == 0) return m * costs.insert;
  if (m == 0) return n * costs.remove;

  std::vector<std::vector<double>> treedist(
      static_cast<size_t>(n) + 1,
      std::vector<double>(static_cast<size_t>(m) + 1, 0.0));

  // Forest-distance scratch, sized for the largest subproblem.
  std::vector<std::vector<double>> fd(
      static_cast<size_t>(n) + 2,
      std::vector<double>(static_cast<size_t>(m) + 2, 0.0));

  for (int ik : ta.keyroots) {
    for (int jk : tb.keyroots) {
      const int li = ta.lld[static_cast<size_t>(ik)];
      const int lj = tb.lld[static_cast<size_t>(jk)];

      fd[0][0] = 0.0;
      // Using row/col index shifted so that index x corresponds to
      // forest l..(l-1+x).
      const int ni = ik - li + 1;
      const int nj = jk - lj + 1;
      for (int x = 1; x <= ni; ++x) {
        fd[static_cast<size_t>(x)][0] =
            fd[static_cast<size_t>(x - 1)][0] + costs.remove;
      }
      for (int y = 1; y <= nj; ++y) {
        fd[0][static_cast<size_t>(y)] =
            fd[0][static_cast<size_t>(y - 1)] + costs.insert;
      }
      for (int x = 1; x <= ni; ++x) {
        const int i = li + x - 1;
        for (int y = 1; y <= nj; ++y) {
          const int j = lj + y - 1;
          const double del =
              fd[static_cast<size_t>(x - 1)][static_cast<size_t>(y)] +
              costs.remove;
          const double ins =
              fd[static_cast<size_t>(x)][static_cast<size_t>(y - 1)] +
              costs.insert;
          if (ta.lld[static_cast<size_t>(i)] == li &&
              tb.lld[static_cast<size_t>(j)] == lj) {
            const double relabel_cost =
                ta.labels[static_cast<size_t>(i)] ==
                        tb.labels[static_cast<size_t>(j)]
                    ? 0.0
                    : costs.relabel;
            const double sub =
                fd[static_cast<size_t>(x - 1)][static_cast<size_t>(y - 1)] +
                relabel_cost;
            fd[static_cast<size_t>(x)][static_cast<size_t>(y)] =
                std::min({del, ins, sub});
            treedist[static_cast<size_t>(i)][static_cast<size_t>(j)] =
                fd[static_cast<size_t>(x)][static_cast<size_t>(y)];
          } else {
            // Forest prefix before subtree i.
            const int xi = ta.lld[static_cast<size_t>(i)] - li;
            const int yj = tb.lld[static_cast<size_t>(j)] - lj;
            const double sub =
                fd[static_cast<size_t>(xi)][static_cast<size_t>(yj)] +
                treedist[static_cast<size_t>(i)][static_cast<size_t>(j)];
            fd[static_cast<size_t>(x)][static_cast<size_t>(y)] =
                std::min({del, ins, sub});
          }
        }
      }
    }
  }
  return treedist[static_cast<size_t>(n)][static_cast<size_t>(m)];
}

}  // namespace oracle
}  // namespace webre

#endif  // WEBRE_TESTS_TREE_EDIT_ORACLE_H_
