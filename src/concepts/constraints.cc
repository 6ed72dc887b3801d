#include "concepts/constraints.h"

#include <algorithm>

namespace webre {

ConceptConstraint ConceptConstraint::Parent(std::string parent,
                                            std::string child, bool negated) {
  ConceptConstraint c;
  c.kind = Kind::kParent;
  c.negated = negated;
  c.c1 = std::move(parent);
  c.c2 = std::move(child);
  return c;
}

ConceptConstraint ConceptConstraint::Sibling(std::string a, std::string b,
                                             bool negated) {
  ConceptConstraint c;
  c.kind = Kind::kSibling;
  c.negated = negated;
  c.c1 = std::move(a);
  c.c2 = std::move(b);
  return c;
}

ConceptConstraint ConceptConstraint::Depth(std::string concept_name,
                                           DepthRelation relation,
                                           size_t level, bool negated) {
  ConceptConstraint c;
  c.kind = Kind::kDepth;
  c.negated = negated;
  c.c1 = std::move(concept_name);
  c.relation = relation;
  c.level = level;
  return c;
}

std::string ConceptConstraint::ToString() const {
  std::string out;
  if (negated) out.push_back('!');
  switch (kind) {
    case Kind::kParent:
      out += "parent(" + c1 + ", " + c2 + ")";
      break;
    case Kind::kSibling:
      out += "sibling(" + c1 + ", " + c2 + ")";
      break;
    case Kind::kDepth: {
      const char* rel = relation == DepthRelation::kEq
                            ? " = "
                            : relation == DepthRelation::kLt ? " < " : " > ";
      out += "depth(" + c1 + ")" + rel + std::to_string(level);
      break;
    }
  }
  return out;
}

ConstraintSet::NameRules& ConstraintSet::MutableRulesOf(NameId name) {
  if (name >= slot_.size()) slot_.resize(static_cast<size_t>(name) + 1, 0);
  if (slot_[name] == 0) {
    rules_.emplace_back();
    slot_[name] = static_cast<uint32_t>(rules_.size());
  }
  return rules_[slot_[name] - 1];
}

void ConstraintSet::Add(ConceptConstraint constraint) {
  const NameId c1 = InternName(constraint.c1);
  switch (constraint.kind) {
    case ConceptConstraint::Kind::kDepth: {
      // Each rule narrows the level interval or punches one hole in it;
      // a conjunction of such rules stays an interval with holes.
      NameRules& rules = MutableRulesOf(c1);
      const size_t bound = constraint.level;
      auto raise_min = [&](size_t level) {
        rules.min_level = std::max(rules.min_level, level);
      };
      auto lower_max = [&](size_t level) {
        rules.max_level = std::min(rules.max_level, level);
      };
      auto allow_none = [&] {
        rules.min_level = 1;
        rules.max_level = 0;
      };
      switch (constraint.relation) {
        case DepthRelation::kEq:
          if (constraint.negated) {
            rules.excluded.push_back(bound);
          } else {
            raise_min(bound);
            lower_max(bound);
          }
          break;
        case DepthRelation::kLt:
          if (constraint.negated) {
            raise_min(bound);
          } else if (bound == 0) {
            allow_none();
          } else {
            lower_max(bound - 1);
          }
          break;
        case DepthRelation::kGt:
          if (constraint.negated) {
            lower_max(bound);
          } else if (bound == SIZE_MAX) {
            allow_none();
          } else {
            raise_min(bound + 1);
          }
          break;
      }
      break;
    }
    case ConceptConstraint::Kind::kParent:
      MutableRulesOf(InternName(constraint.c2))
          .parents.emplace_back(c1, constraint.negated);
      break;
    case ConceptConstraint::Kind::kSibling: {
      const NameId c2 = InternName(constraint.c2);
      auto& forward = constraint.negated
                          ? MutableRulesOf(c1).forbidden_siblings
                          : MutableRulesOf(c1).expected_siblings;
      forward.push_back(c2);
      auto& backward = constraint.negated
                           ? MutableRulesOf(c2).forbidden_siblings
                           : MutableRulesOf(c2).expected_siblings;
      backward.push_back(c1);
      break;
    }
  }
  constraints_.push_back(std::move(constraint));
}

namespace {

bool Contains(const std::vector<NameId>& names, NameId name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

bool ConstraintSet::AllowedAtLevel(NameId name, size_t level) const {
  if (max_level_ > 0 && level > max_level_) return false;
  const NameRules* rules = RulesOf(name);
  if (rules == nullptr) return true;
  return level >= rules->min_level && level <= rules->max_level &&
         std::find(rules->excluded.begin(), rules->excluded.end(), level) ==
             rules->excluded.end();
}

bool ConstraintSet::AncestorAllowed(NameId ancestor, NameId child) const {
  const NameRules* rules = RulesOf(child);
  if (rules == nullptr) return true;
  for (const auto& [parent, negated] : rules->parents) {
    // Negated parent(c1, c2): c1 must never be an ancestor of c2.
    if (negated && parent == ancestor) return false;
  }
  return true;
}

bool ConstraintSet::SiblingAllowed(NameId a, NameId b) const {
  const NameRules* rules = RulesOf(a);
  return rules == nullptr || !Contains(rules->forbidden_siblings, b);
}

bool ConstraintSet::SiblingExpected(NameId a, NameId b) const {
  const NameRules* rules = RulesOf(a);
  return rules != nullptr && Contains(rules->expected_siblings, b);
}

bool ConstraintSet::LeafAllowed(std::span<const NameId> labels) const {
  if (labels.empty()) return true;
  // labels[0] is the root (concept level 0, never depth-checked); the
  // leaf labels[j] has concept level j.
  const size_t j = labels.size() - 1;
  const NameId leaf = labels[j];
  if (j > 0 && !AllowedAtLevel(leaf, j)) return false;
  const std::span<const NameId> ancestors = labels.first(j);
  auto has_ancestor = [&](NameId name) {
    return std::find(ancestors.begin(), ancestors.end(), name) !=
           ancestors.end();
  };
  if (no_repeat_on_path_ && has_ancestor(leaf)) return false;
  const NameRules* rules = RulesOf(leaf);
  if (rules == nullptr) return true;
  for (const auto& [parent, negated] : rules->parents) {
    if (negated) {
      // c1 must NOT be an ancestor of c2.
      if (has_ancestor(parent)) return false;
    } else if (j > 0 && !has_ancestor(parent)) {
      // Positive parent(c1, c2): every occurrence of c2 below the root
      // must have c1 above it.
      return false;
    }
  }
  return true;
}

}  // namespace webre
