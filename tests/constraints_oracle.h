// String-keyed reference implementation of the ConstraintSet
// predicates: every rule is re-read from ConstraintSet::constraints()
// and compared by name on each call, exactly as the §2.2/§4.2 rules
// read. The compiled NameId tables of ConstraintSet are checked against
// these functions (constraints_differential_test, constraints_test).

#ifndef WEBRE_TESTS_CONSTRAINTS_ORACLE_H_
#define WEBRE_TESTS_CONSTRAINTS_ORACLE_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "concepts/constraints.h"

namespace webre::oracle {

inline bool DepthSatisfied(DepthRelation relation, size_t level,
                           size_t bound) {
  switch (relation) {
    case DepthRelation::kEq:
      return level == bound;
    case DepthRelation::kLt:
      return level < bound;
    case DepthRelation::kGt:
      return level > bound;
  }
  return true;
}

inline bool AllowedAtLevel(const ConstraintSet& set, std::string_view name,
                           size_t level) {
  if (set.max_level() > 0 && level > set.max_level()) return false;
  for (const ConceptConstraint& c : set.constraints()) {
    if (c.kind != ConceptConstraint::Kind::kDepth || c.c1 != name) continue;
    const bool satisfied = DepthSatisfied(c.relation, level, c.level);
    if (c.negated ? satisfied : !satisfied) return false;
  }
  return true;
}

inline bool AncestorAllowed(const ConstraintSet& set,
                            std::string_view ancestor,
                            std::string_view child) {
  for (const ConceptConstraint& c : set.constraints()) {
    if (c.kind != ConceptConstraint::Kind::kParent) continue;
    // Negated parent(c1, c2): c1 must never be an ancestor of c2.
    if (c.negated && c.c1 == ancestor && c.c2 == child) return false;
  }
  return true;
}

inline bool SiblingAllowed(const ConstraintSet& set, std::string_view a,
                           std::string_view b) {
  for (const ConceptConstraint& c : set.constraints()) {
    if (c.kind != ConceptConstraint::Kind::kSibling || !c.negated) continue;
    if ((c.c1 == a && c.c2 == b) || (c.c1 == b && c.c2 == a)) return false;
  }
  return true;
}

inline bool SiblingExpected(const ConstraintSet& set, std::string_view a,
                            std::string_view b) {
  for (const ConceptConstraint& c : set.constraints()) {
    if (c.kind != ConceptConstraint::Kind::kSibling || c.negated) continue;
    if ((c.c1 == a && c.c2 == b) || (c.c1 == b && c.c2 == a)) return true;
  }
  return false;
}

/// Checks a whole root-emanating label path `labels[0..n)` where
/// labels[0] is the root.
inline bool PathAllowed(const ConstraintSet& set,
                        const std::vector<std::string>& labels) {
  // labels[0] is the root (concept level 0); labels[i] has concept
  // level i.
  for (size_t i = 1; i < labels.size(); ++i) {
    if (!AllowedAtLevel(set, labels[i], i)) return false;
  }
  if (set.no_repeat_on_path()) {
    for (size_t i = 0; i < labels.size(); ++i) {
      for (size_t j = i + 1; j < labels.size(); ++j) {
        if (labels[i] == labels[j]) return false;
      }
    }
  }
  // Parent constraints along the path.
  for (const ConceptConstraint& c : set.constraints()) {
    if (c.kind != ConceptConstraint::Kind::kParent) continue;
    for (size_t j = 0; j < labels.size(); ++j) {
      if (labels[j] != c.c2) continue;
      bool has_ancestor = false;
      for (size_t i = 0; i < j; ++i) {
        if (labels[i] == c.c1) {
          has_ancestor = true;
          break;
        }
      }
      if (c.negated) {
        // c1 must NOT be an ancestor of c2.
        if (has_ancestor) return false;
      } else {
        // Positive parent(c1, c2): every occurrence of c2 must have c1
        // above it. Only enforceable once c2 is not the path's root.
        if (j > 0 && !has_ancestor) return false;
      }
    }
  }
  return true;
}

/// The compiled verdict of a whole path, composed from
/// ConstraintSet::LeafAllowed over its prefixes as the miner composes it.
inline bool CompiledPathAllowed(const ConstraintSet& set,
                                std::span<const NameId> ids) {
  for (size_t n = 1; n <= ids.size(); ++n) {
    if (!set.LeafAllowed(ids.first(n))) return false;
  }
  return true;
}

}  // namespace webre::oracle

#endif  // WEBRE_TESTS_CONSTRAINTS_ORACLE_H_
