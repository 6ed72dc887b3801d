#include "mapping/tree_edit.h"

#include <algorithm>
#include <vector>

#include "mapping/zhang_shasha.h"

namespace webre {
namespace zhang_shasha {

void PostOrderTree::Assign(const Node& root) {
  nodes_.assign(1, nullptr);
  labels_.assign(1, kInvalidNameId);
  lld_.assign(1, 0);
  keyroots_.clear();
  stack_.clear();
  stack_.push_back({&root, 0, -1});
  while (!stack_.empty()) {
    Frame& top = stack_.back();
    if (top.next_child < top.node->child_count()) {
      const Node* child = top.node->child(top.next_child++);
      if (child->is_element()) stack_.push_back({child, 0, -1});
      continue;
    }
    const Node* node = top.node;
    nodes_.push_back(node);
    // Only a text root can lack a name id; its name is then "", so it
    // is labelled like an element named "".
    labels_.push_back(node->name_id() != kInvalidNameId
                          ? node->name_id()
                          : NameTable::Global().Intern(""));
    const int index = size();
    const int leaf = top.first_leaf < 0 ? index : top.first_leaf;
    lld_.push_back(leaf);
    stack_.pop_back();
    if (!stack_.empty() && stack_.back().first_leaf < 0) {
      stack_.back().first_leaf = leaf;
    }
  }
  // Keyroots: nodes i such that no j > i has lld(j) == lld(i).
  const int n = size();
  last_with_lld_.assign(static_cast<size_t>(n) + 1, 0);
  for (int i = 1; i <= n; ++i) last_with_lld_[static_cast<size_t>(lld(i))] = i;
  for (int i = 1; i <= n; ++i) {
    if (last_with_lld_[static_cast<size_t>(lld(i))] == i) {
      keyroots_.push_back(i);
    }
  }
}

void ForestDistance(const PostOrderTree& a, const PostOrderTree& b, int i,
                    int j, const TreeEditCosts& costs, double* fd,
                    double* treedist) {
  // Locals, so the stores into the tables cannot force reloads.
  const double remove = costs.remove;
  const double insert = costs.insert;
  const double relabel = costs.relabel;
  const int li = a.lld(i);
  const int lj = b.lld(j);
  const int ni = i - li + 1;
  const int nj = j - lj + 1;
  const size_t stride = static_cast<size_t>(ForestWidth(b, j));
  const size_t td_stride = static_cast<size_t>(b.size()) + 1;
  fd[0] = 0.0;
  for (int x = 1; x <= ni; ++x) {
    fd[static_cast<size_t>(x) * stride] =
        fd[static_cast<size_t>(x - 1) * stride] + remove;
  }
  for (int y = 1; y <= nj; ++y) {
    fd[static_cast<size_t>(y)] = fd[static_cast<size_t>(y - 1)] + insert;
  }
  for (int x = 1; x <= ni; ++x) {
    const int ii = li + x - 1;
    const bool source_whole = a.lld(ii) == li;
    const NameId source_label = a.label(ii);
    double* row = fd + static_cast<size_t>(x) * stride;
    const double* above = row - stride;
    // Forest prefix before subtree ii, for whole-subtree substitution.
    const double* before_ii =
        fd + static_cast<size_t>(a.lld(ii) - li) * stride;
    double* td_row = treedist + static_cast<size_t>(ii) * td_stride;
    double left = row[0];  // row[y - 1], kept out of memory
    // Only the insert depends on the cell just computed, so it joins the
    // minimum last, after the delete and the substitution. For costs that
    // are not NaN the order does not change the value: every cell is a sum
    // starting from +0.0, so no -0.0 ties arise.
    for (int y = 1; y <= nj; ++y) {
      const int jj = lj + y - 1;
      const double del = above[y] + remove;
      if (source_whole && b.lld(jj) == lj) {
        const double relabel_cost =
            source_label == b.label(jj) ? 0.0 : relabel;
        left = std::min(left + insert,
                        std::min(del, above[y - 1] + relabel_cost));
        td_row[jj] = left;
      } else {
        left = std::min(left + insert,
                        std::min(del, before_ii[b.lld(jj) - lj] + td_row[jj]));
      }
      row[y] = left;
    }
  }
}

}  // namespace zhang_shasha

namespace {

// Per-thread buffers, so a batch of distances allocates only while the
// largest pair seen so far grows.
struct Scratch {
  zhang_shasha::PostOrderTree a;
  zhang_shasha::PostOrderTree b;
  std::vector<double> treedist;
  std::vector<double> fd;
};

// Buffers beyond this many cells are released after the call instead of
// being kept for the thread's lifetime (8 MiB each).
constexpr size_t kRetainedCells = size_t{1} << 20;

}  // namespace

double TreeEditDistance(const Node& a, const Node& b,
                        const TreeEditCosts& costs) {
  thread_local Scratch scratch;
  zhang_shasha::PostOrderTree& ta = scratch.a;
  zhang_shasha::PostOrderTree& tb = scratch.b;
  ta.Assign(a);
  tb.Assign(b);
  const int n = ta.size();
  const int m = tb.size();
  const size_t cells =
      (static_cast<size_t>(n) + 1) * (static_cast<size_t>(m) + 1);
  scratch.treedist.assign(cells, 0.0);
  // The root's forest covers every node, so the largest table any
  // keyroot pair needs is (n + 1) x (m + 1).
  scratch.fd.resize(cells);
  for (int ik : ta.keyroots()) {
    for (int jk : tb.keyroots()) {
      zhang_shasha::ForestDistance(ta, tb, ik, jk, costs, scratch.fd.data(),
                                   scratch.treedist.data());
    }
  }
  const double distance = scratch.treedist[cells - 1];
  if (cells > kRetainedCells) {
    scratch.treedist = {};
    scratch.fd = {};
  }
  return distance;
}

}  // namespace webre
