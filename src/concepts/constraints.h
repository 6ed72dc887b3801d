#ifndef WEBRE_CONCEPTS_CONSTRAINTS_H_
#define WEBRE_CONCEPTS_CONSTRAINTS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "xml/name_table.h"

namespace webre {

/// Comparison used by a depth constraint.
enum class DepthRelation { kEq, kLt, kGt };

/// One optional concept constraint (§2.2):
///   parent(c1, c2)      — c1 is a (not necessarily direct) parent of c2
///   sibling(c1, c2)     — c1 and c2 occur at the same level
///   depth(c1) ⊙ d       — c1 occurs only at depths satisfying ⊙ d
/// Every predicate may be negated to state atypical properties.
///
/// Depth convention follows the paper's §4.2 counting: the document root
/// has depth 1, its children depth 2, and so on; "title names can only
/// occur as first level nodes" means their elements sit at depth 2 of the
/// label path (directly under the root). To keep the user-facing API in
/// the paper's language, Depth() takes the *concept level*: level 1 =
/// directly under the root.
struct ConceptConstraint {
  enum class Kind { kParent, kSibling, kDepth };

  Kind kind = Kind::kDepth;
  bool negated = false;
  std::string c1;
  std::string c2;  // unused for kDepth
  DepthRelation relation = DepthRelation::kEq;
  size_t level = 0;  // unused for kParent/kSibling

  static ConceptConstraint Parent(std::string parent, std::string child,
                                  bool negated = false);
  static ConceptConstraint Sibling(std::string a, std::string b,
                                   bool negated = false);
  static ConceptConstraint Depth(std::string concept_name,
                                 DepthRelation relation, size_t level,
                                 bool negated = false);

  /// Human-readable form, e.g. "parent(EDUCATION, DEGREE)" or
  /// "!depth(CONTACT) > 1".
  std::string ToString() const;
};

/// A collection of concept constraints plus the two built-in §4.2 rules,
/// used to prune the schema-discovery search space and to guide
/// restructuring decisions. Constraints are optional and need not be
/// complete (§2.2).
///
/// Add() compiles the set into per-name tables keyed by interned NameId
/// (as ConceptSet compiles its matcher), so every predicate below is a
/// handful of 32-bit compares: a depth rule set becomes one level
/// interval with excluded points, a parent rule is stored with its
/// child, a sibling rule with both names. Mutation is setup-time only;
/// every const member is safe to call from concurrent threads.
class ConstraintSet {
 public:
  ConstraintSet() = default;

  void Add(ConceptConstraint constraint);
  const std::vector<ConceptConstraint>& constraints() const {
    return constraints_;
  }

  /// §4.2: "a concept name cannot appear more than once along any label
  /// path". On by default there; off by default here — enable explicitly.
  void set_no_repeat_on_path(bool value) { no_repeat_on_path_ = value; }
  bool no_repeat_on_path() const { return no_repeat_on_path_; }

  /// §4.2: "no concept can occur at a depth greater than `max`" (concept
  /// levels, root excluded). 0 disables the limit.
  void set_max_level(size_t max) { max_level_ = max; }
  size_t max_level() const { return max_level_; }

  /// True iff concept `name` may occur at concept level `level`
  /// (1 = directly under the root) according to the depth constraints
  /// and max_level.
  bool AllowedAtLevel(NameId name, size_t level) const;

  /// True iff an element named `child` may appear somewhere below an
  /// element named `ancestor` (negated kParent constraints).
  bool AncestorAllowed(NameId ancestor, NameId child) const;

  /// True iff `a` and `b` may be siblings (kSibling constraints with
  /// negation; positive sibling constraints are hints, not exclusions).
  bool SiblingAllowed(NameId a, NameId b) const;

  /// True iff there is a positive sibling(a, b) or sibling(b, a) hint.
  bool SiblingExpected(NameId a, NameId b) const;

  /// The checks a root-emanating label path `labels` (labels[0] is the
  /// root) adds over its parent path: the leaf's depth rule and level
  /// cap, the no-repeat rule against its ancestors, and the parent
  /// constraints naming the leaf. Every rule is prefix-closed, so a path
  /// is allowed iff its parent path is and LeafAllowed holds; a caller
  /// walking paths parent-first decides each with one call.
  bool LeafAllowed(std::span<const NameId> labels) const;

 private:
  /// Everything the set says about one name.
  struct NameRules {
    /// Allowed concept levels: [min_level, max_level] minus `excluded`.
    /// min_level > max_level means no level is allowed.
    size_t min_level = 0;
    size_t max_level = SIZE_MAX;
    std::vector<size_t> excluded;
    /// parent(c1, this name) rules: (c1, negated).
    std::vector<std::pair<NameId, bool>> parents;
    /// Names this one may not (forbidden) or is expected to (expected)
    /// be a sibling of; both directions are stored.
    std::vector<NameId> forbidden_siblings;
    std::vector<NameId> expected_siblings;
  };

  const NameRules* RulesOf(NameId name) const {
    return name < slot_.size() && slot_[name] != 0 ? &rules_[slot_[name] - 1]
                                                   : nullptr;
  }
  NameRules& MutableRulesOf(NameId name);

  std::vector<ConceptConstraint> constraints_;
  bool no_repeat_on_path_ = false;
  size_t max_level_ = 0;
  /// Compiled tables: slot_[id] is 1 + the index of id's entry in
  /// rules_, or 0 when the set names id nowhere.
  std::vector<NameRules> rules_;
  std::vector<uint32_t> slot_;
};

}  // namespace webre

#endif  // WEBRE_CONCEPTS_CONSTRAINTS_H_
