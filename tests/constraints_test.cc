#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "concepts/constraints.h"
#include "constraints_oracle.h"

namespace webre {
namespace {

// Each check asks the compiled NameId tables and the string oracle; the
// two must agree, and the compiled verdict is returned.
bool AtLevel(const ConstraintSet& set, std::string_view name, size_t level) {
  const bool compiled = set.AllowedAtLevel(InternName(name), level);
  EXPECT_EQ(compiled, oracle::AllowedAtLevel(set, name, level))
      << name << " at level " << level;
  return compiled;
}

bool Ancestor(const ConstraintSet& set, std::string_view a,
              std::string_view b) {
  const bool compiled = set.AncestorAllowed(InternName(a), InternName(b));
  EXPECT_EQ(compiled, oracle::AncestorAllowed(set, a, b)) << a << ", " << b;
  return compiled;
}

bool Sibling(const ConstraintSet& set, std::string_view a,
             std::string_view b) {
  const bool compiled = set.SiblingAllowed(InternName(a), InternName(b));
  EXPECT_EQ(compiled, oracle::SiblingAllowed(set, a, b)) << a << ", " << b;
  return compiled;
}

bool Expected(const ConstraintSet& set, std::string_view a,
              std::string_view b) {
  const bool compiled = set.SiblingExpected(InternName(a), InternName(b));
  EXPECT_EQ(compiled, oracle::SiblingExpected(set, a, b)) << a << ", " << b;
  return compiled;
}

bool Path(const ConstraintSet& set, const std::vector<std::string>& labels) {
  std::vector<NameId> ids;
  for (const std::string& label : labels) ids.push_back(InternName(label));
  const bool compiled = oracle::CompiledPathAllowed(set, ids);
  EXPECT_EQ(compiled, oracle::PathAllowed(set, labels));
  return compiled;
}

TEST(ConstraintTest, ToStringForms) {
  EXPECT_EQ(ConceptConstraint::Parent("EDUCATION", "DEGREE").ToString(),
            "parent(EDUCATION, DEGREE)");
  EXPECT_EQ(ConceptConstraint::Sibling("DATE", "GPA", true).ToString(),
            "!sibling(DATE, GPA)");
  EXPECT_EQ(
      ConceptConstraint::Depth("CONTACT", DepthRelation::kEq, 1).ToString(),
      "depth(CONTACT) = 1");
  EXPECT_EQ(
      ConceptConstraint::Depth("DATE", DepthRelation::kGt, 1).ToString(),
      "depth(DATE) > 1");
}

TEST(ConstraintSetTest, DepthEquality) {
  ConstraintSet set;
  set.Add(ConceptConstraint::Depth("TITLE", DepthRelation::kEq, 1));
  EXPECT_TRUE(AtLevel(set, "TITLE", 1));
  EXPECT_FALSE(AtLevel(set, "TITLE", 2));
  EXPECT_TRUE(AtLevel(set, "OTHER", 7));  // unconstrained
}

TEST(ConstraintSetTest, DepthGreaterAndLess) {
  ConstraintSet set;
  set.Add(ConceptConstraint::Depth("DEEP", DepthRelation::kGt, 1));
  set.Add(ConceptConstraint::Depth("SHALLOW", DepthRelation::kLt, 3));
  EXPECT_FALSE(AtLevel(set, "DEEP", 1));
  EXPECT_TRUE(AtLevel(set, "DEEP", 2));
  EXPECT_TRUE(AtLevel(set, "SHALLOW", 2));
  EXPECT_FALSE(AtLevel(set, "SHALLOW", 3));
}

TEST(ConstraintSetTest, NegatedDepth) {
  ConstraintSet set;
  set.Add(ConceptConstraint::Depth("X", DepthRelation::kEq, 2,
                                   /*negated=*/true));
  EXPECT_TRUE(AtLevel(set, "X", 1));
  EXPECT_FALSE(AtLevel(set, "X", 2));
  EXPECT_TRUE(AtLevel(set, "X", 3));
}

TEST(ConstraintSetTest, MaxLevelCapsEverything) {
  ConstraintSet set;
  set.set_max_level(3);
  EXPECT_TRUE(AtLevel(set, "ANY", 3));
  EXPECT_FALSE(AtLevel(set, "ANY", 4));
}

TEST(ConstraintSetTest, NegatedParentBlocksAncestry) {
  ConstraintSet set;
  set.Add(ConceptConstraint::Parent("SKILLS", "DATE", /*negated=*/true));
  EXPECT_FALSE(Ancestor(set, "SKILLS", "DATE"));
  EXPECT_TRUE(Ancestor(set, "EDUCATION", "DATE"));
}

TEST(ConstraintSetTest, NegatedSiblingBlocksPair) {
  ConstraintSet set;
  set.Add(ConceptConstraint::Sibling("GPA", "COMPANY", /*negated=*/true));
  EXPECT_FALSE(Sibling(set, "GPA", "COMPANY"));
  EXPECT_FALSE(Sibling(set, "COMPANY", "GPA"));  // symmetric
  EXPECT_TRUE(Sibling(set, "GPA", "DATE"));
}

TEST(ConstraintSetTest, PositiveSiblingIsHintNotExclusion) {
  ConstraintSet set;
  set.Add(ConceptConstraint::Sibling("DEGREE", "MAJOR"));
  EXPECT_TRUE(Expected(set, "DEGREE", "MAJOR"));
  EXPECT_TRUE(Expected(set, "MAJOR", "DEGREE"));
  EXPECT_FALSE(Expected(set, "DEGREE", "DATE"));
  // Other pairs remain allowed.
  EXPECT_TRUE(Sibling(set, "DEGREE", "DATE"));
}

TEST(PathAllowedTest, DepthConstraintsAlongPath) {
  ConstraintSet set;
  set.Add(ConceptConstraint::Depth("TITLE", DepthRelation::kEq, 1));
  set.Add(ConceptConstraint::Depth("CONTENT", DepthRelation::kGt, 1));
  EXPECT_TRUE(Path(set, {"root", "TITLE", "CONTENT"}));
  EXPECT_FALSE(Path(set, {"root", "CONTENT"}));
  EXPECT_FALSE(Path(set, {"root", "TITLE", "TITLE2", "TITLE"}));
}

TEST(PathAllowedTest, NoRepeatOnPath) {
  ConstraintSet set;
  set.set_no_repeat_on_path(true);
  EXPECT_TRUE(Path(set, {"root", "A", "B"}));
  EXPECT_FALSE(Path(set, {"root", "A", "B", "A"}));
  EXPECT_FALSE(Path(set, {"root", "root"}));
}

TEST(PathAllowedTest, PositiveParentRequiresAncestor) {
  ConstraintSet set;
  set.Add(ConceptConstraint::Parent("EDUCATION", "DEGREE"));
  EXPECT_TRUE(Path(set, {"root", "EDUCATION", "DATE", "DEGREE"}));
  EXPECT_FALSE(Path(set, {"root", "EXPERIENCE", "DEGREE"}));
  // Paths without DEGREE are unaffected.
  EXPECT_TRUE(Path(set, {"root", "EXPERIENCE", "DATE"}));
}

TEST(PathAllowedTest, NegatedParentForbidsAncestor) {
  ConstraintSet set;
  set.Add(ConceptConstraint::Parent("SKILLS", "DATE", /*negated=*/true));
  EXPECT_FALSE(Path(set, {"root", "SKILLS", "DATE"}));
  EXPECT_FALSE(Path(set, {"root", "SKILLS", "X", "DATE"}));
  EXPECT_TRUE(Path(set, {"root", "EDUCATION", "DATE"}));
}

TEST(ConstraintSetTest, DepthRuleConjunctionsAndExtremeBounds) {
  ConstraintSet set;
  set.Add(ConceptConstraint::Depth("A", DepthRelation::kGt, 1));
  set.Add(ConceptConstraint::Depth("A", DepthRelation::kLt, 5));
  set.Add(ConceptConstraint::Depth("A", DepthRelation::kEq, 3, true));
  set.Add(ConceptConstraint::Depth("B", DepthRelation::kLt, 0));
  set.Add(ConceptConstraint::Depth("C", DepthRelation::kGt, SIZE_MAX));
  set.Add(ConceptConstraint::Depth("D", DepthRelation::kLt, 2, true));
  set.Add(ConceptConstraint::Depth("D", DepthRelation::kGt, 4, true));
  for (size_t level = 0; level < 8; ++level) {
    AtLevel(set, "A", level);
    AtLevel(set, "B", level);
    AtLevel(set, "C", level);
    AtLevel(set, "D", level);
  }
  EXPECT_TRUE(AtLevel(set, "A", 4));
  EXPECT_FALSE(AtLevel(set, "A", 3));
  EXPECT_FALSE(AtLevel(set, "B", 0));
  EXPECT_FALSE(AtLevel(set, "C", SIZE_MAX));
  EXPECT_TRUE(AtLevel(set, "D", 4));
  EXPECT_FALSE(AtLevel(set, "D", 5));
}

TEST(PathAllowedTest, EmptyConstraintSetAllowsEverything) {
  ConstraintSet set;
  EXPECT_TRUE(Path(set, {"root", "A", "B", "C", "D", "E", "A"}));
}

}  // namespace
}  // namespace webre
