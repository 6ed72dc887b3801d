#ifndef WEBRE_TESTS_NAIVE_QUERY_ORACLE_H_
#define WEBRE_TESTS_NAIVE_QUERY_ORACLE_H_

// Test oracle: the naive path-query evaluator (the seed algorithm —
// string name tests, ContainsIgnoreCase predicates, recursive descent
// and linear-scan dedup) that every repository query plan is checked
// against, plus the element numbering that canonicalizes its node
// matches to the (doc, pos) coordinates repository matches carry.

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "repository/query.h"
#include "util/strings.h"
#include "xml/node.h"

namespace webre {
namespace oracle {

// Pre-order position among ELEMENTS only — the same numbering
// FlatDoc::Freeze assigns, so tree matches canonicalize to the
// (doc, pos) coordinates repository matches carry.
inline std::map<const Node*, uint32_t> ElementOrderIndex(const Node& root) {
  std::map<const Node*, uint32_t> index;
  uint32_t n = 0;
  root.PreOrder([&](const Node& node) {
    if (node.is_element()) index[&node] = n++;
  });
  return index;
}

inline bool NaiveStepMatches(const QueryStep& step, const Node& node) {
  if (!node.is_element()) return false;
  if (step.name != "*" && node.name() != step.name) return false;
  if (!step.val_contains.empty() &&
      !ContainsIgnoreCase(node.val(), step.val_contains)) {
    return false;
  }
  return true;
}

inline void NaiveCollectDescendants(const Node& from, const QueryStep& step,
                             std::vector<const Node*>& out) {
  for (size_t i = 0; i < from.child_count(); ++i) {
    const Node* child = from.child(i);
    if (!child->is_element()) continue;
    if (NaiveStepMatches(step, *child)) out.push_back(child);
    NaiveCollectDescendants(*child, step, out);
  }
}

inline std::vector<const Node*> NaiveEvaluate(const PathQuery& query,
                                       const Node& root) {
  const std::vector<QueryStep>& steps = query.steps();
  std::vector<const Node*> frontier;
  if (steps[0].descendant) {
    if (NaiveStepMatches(steps[0], root)) frontier.push_back(&root);
    NaiveCollectDescendants(root, steps[0], frontier);
  } else if (NaiveStepMatches(steps[0], root)) {
    frontier.push_back(&root);
  }
  for (size_t s = 1; s < steps.size(); ++s) {
    std::vector<const Node*> next;
    for (const Node* node : frontier) {
      if (steps[s].descendant) {
        NaiveCollectDescendants(*node, steps[s], next);
      } else {
        for (size_t i = 0; i < node->child_count(); ++i) {
          const Node* child = node->child(i);
          if (child->is_element() && NaiveStepMatches(steps[s], *child)) {
            next.push_back(child);
          }
        }
      }
    }
    std::vector<const Node*> deduped;
    for (const Node* node : next) {
      if (std::find(deduped.begin(), deduped.end(), node) ==
          deduped.end()) {
        deduped.push_back(node);
      }
    }
    frontier = std::move(deduped);
    if (frontier.empty()) break;
  }
  return frontier;
}

}  // namespace oracle
}  // namespace webre

#endif  // WEBRE_TESTS_NAIVE_QUERY_ORACLE_H_
