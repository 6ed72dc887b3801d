#include "mapping/edit_script.h"

#include <cmath>
#include <string>
#include <vector>

#include "mapping/zhang_shasha.h"

namespace webre {

std::string EditOp::ToString() const {
  switch (kind) {
    case Kind::kRelabel:
      return "relabel " + from_label + " -> " + to_label;
    case Kind::kDelete:
      return "delete " + from_label;
    case Kind::kInsert:
      return "insert " + to_label;
  }
  return "";
}

size_t EditScript::relabels() const {
  size_t count = 0;
  for (const EditOp& op : ops) {
    if (op.kind == EditOp::Kind::kRelabel) ++count;
  }
  return count;
}

size_t EditScript::deletions() const {
  size_t count = 0;
  for (const EditOp& op : ops) {
    if (op.kind == EditOp::Kind::kDelete) ++count;
  }
  return count;
}

size_t EditScript::insertions() const {
  size_t count = 0;
  for (const EditOp& op : ops) {
    if (op.kind == EditOp::Kind::kInsert) ++count;
  }
  return count;
}

namespace {

using zhang_shasha::PostOrderTree;

class ScriptBuilder {
 public:
  ScriptBuilder(const PostOrderTree& a, const PostOrderTree& b,
                const TreeEditCosts& costs)
      : a_(a), b_(b), costs_(costs) {}

  EditScript Build() {
    ComputeTreeDistances();
    EditScript script;
    std::vector<bool> a_mapped(static_cast<size_t>(a_.size()) + 1, false);
    std::vector<bool> b_mapped(static_cast<size_t>(b_.size()) + 1, false);
    Backtrace(a_.size(), b_.size(), a_mapped, b_mapped, script);
    // Anything not touched by the mapping is deleted/inserted.
    for (int i = 1; i <= a_.size(); ++i) {
      if (!a_mapped[static_cast<size_t>(i)]) AddDelete(i, script);
    }
    for (int j = 1; j <= b_.size(); ++j) {
      if (!b_mapped[static_cast<size_t>(j)]) AddInsert(j, script);
    }
    script.cost = 0.0;
    for (const EditOp& op : script.ops) {
      switch (op.kind) {
        case EditOp::Kind::kRelabel:
          script.cost += costs_.relabel;
          break;
        case EditOp::Kind::kDelete:
          script.cost += costs_.remove;
          break;
        case EditOp::Kind::kInsert:
          script.cost += costs_.insert;
          break;
      }
    }
    return script;
  }

 private:
  // Forest-distance table for the subtree pair rooted at (i, j), as
  // zhang_shasha::ForestDistance lays it out.
  std::vector<double> ForestTable(int i, int j) {
    std::vector<double> fd(zhang_shasha::ForestSize(a_, i, b_, j));
    zhang_shasha::ForestDistance(a_, b_, i, j, costs_, fd.data(),
                                 treedist_.data());
    return fd;
  }

  void ComputeTreeDistances() {
    treedist_.assign((static_cast<size_t>(a_.size()) + 1) *
                         (static_cast<size_t>(b_.size()) + 1),
                     0.0);
    std::vector<double> fd(zhang_shasha::ForestSize(a_, a_.size(), b_,
                                                    b_.size()));
    for (int ik : a_.keyroots()) {
      for (int jk : b_.keyroots()) {
        zhang_shasha::ForestDistance(a_, b_, ik, jk, costs_, fd.data(),
                                     treedist_.data());
      }
    }
  }

  void AddDelete(int i, EditScript& script) const {
    EditOp op;
    op.kind = EditOp::Kind::kDelete;
    op.from_label = a_.node(i)->name();
    op.source = a_.node(i);
    script.ops.push_back(std::move(op));
  }

  void AddInsert(int j, EditScript& script) const {
    EditOp op;
    op.kind = EditOp::Kind::kInsert;
    op.to_label = b_.node(j)->name();
    op.target = b_.node(j);
    script.ops.push_back(std::move(op));
  }

  void AddPair(int i, int j, std::vector<bool>& a_mapped,
               std::vector<bool>& b_mapped, EditScript& script) const {
    a_mapped[static_cast<size_t>(i)] = true;
    b_mapped[static_cast<size_t>(j)] = true;
    if (a_.label(i) == b_.label(j)) return;  // exact match: no op
    EditOp op;
    op.kind = EditOp::Kind::kRelabel;
    op.from_label = a_.node(i)->name();
    op.to_label = b_.node(j)->name();
    op.source = a_.node(i);
    op.target = b_.node(j);
    script.ops.push_back(std::move(op));
  }

  // Recovers the optimal mapping for the subtree pair (i, j) by walking
  // its forest table back from the bottom-right corner.
  void Backtrace(int i, int j, std::vector<bool>& a_mapped,
                 std::vector<bool>& b_mapped, EditScript& script) {
    const int li = a_.lld(i);
    const int lj = b_.lld(j);
    const std::vector<double> fd = ForestTable(i, j);
    const size_t stride = static_cast<size_t>(zhang_shasha::ForestWidth(b_, j));
    auto cell = [&](int x, int y) {
      return fd[static_cast<size_t>(x) * stride + static_cast<size_t>(y)];
    };
    int x = i - li + 1;
    int y = j - lj + 1;
    constexpr double kEps = 1e-9;
    while (x > 0 || y > 0) {
      const double here = cell(x, y);
      if (x > 0 && std::abs(cell(x - 1, y) + costs_.remove - here) < kEps) {
        // Deletion is recorded later from the unmapped sweep; just move.
        --x;
        continue;
      }
      if (y > 0 && std::abs(cell(x, y - 1) + costs_.insert - here) < kEps) {
        --y;
        continue;
      }
      const int ii = li + x - 1;
      const int jj = lj + y - 1;
      if (a_.lld(ii) == li && b_.lld(jj) == lj) {
        AddPair(ii, jj, a_mapped, b_mapped, script);
        --x;
        --y;
      } else {
        // Whole-subtree substitution: recurse, then skip both subtrees.
        Backtrace(ii, jj, a_mapped, b_mapped, script);
        x = a_.lld(ii) - li;
        y = b_.lld(jj) - lj;
      }
    }
  }

  const PostOrderTree& a_;
  const PostOrderTree& b_;
  TreeEditCosts costs_;
  // Row-major, stride b_.size() + 1.
  std::vector<double> treedist_;
};

}  // namespace

EditScript ComputeEditScript(const Node& source, const Node& target,
                             const TreeEditCosts& costs) {
  PostOrderTree a;
  PostOrderTree b;
  a.Assign(source);
  b.Assign(target);
  return ScriptBuilder(a, b, costs).Build();
}

}  // namespace webre
