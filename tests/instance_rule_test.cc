#include <gtest/gtest.h>

#include "concepts/resume_domain.h"
#include "text_rules_oracle.h"

namespace webre {
namespace {

using oracle::ApplyConceptInstanceRule;
using oracle::ApplyTokenizationRule;

class InstanceRuleTest : public ::testing::Test {
 protected:
  InstanceRuleTest()
      : concepts_(ResumeConcepts()), recognizer_(&concepts_) {}

  // Builds <p>text</p>, tokenizes and applies the instance rule.
  std::unique_ptr<Node> Convert(std::string_view text,
                                InstanceRuleStats* stats = nullptr) {
    auto root = Node::MakeElement("p");
    root->AddText(std::string(text));
    ApplyTokenizationRule(root.get());
    InstanceRuleStats local =
        ApplyConceptInstanceRule(root.get(), recognizer_);
    if (stats != nullptr) *stats = local;
    return root;
  }

  ConceptSet concepts_;
  SynonymRecognizer recognizer_;
};

TEST_F(InstanceRuleTest, PaperTopicSentenceBecomesSiblingElements) {
  // §2.3.1's example topic sentence. The paper shows four siblings with
  // a DEGREE of "B.S.(Computer Science)"; our domain additionally knows
  // MAJOR, so the multi-instance decomposition splits that token into
  // DEGREE + MAJOR — five siblings, same information.
  auto root = Convert(
      "University of Wisconsin at Madison, B.S.(Computer Science), "
      "June 1996, GPA 3.8/4.0");
  ASSERT_EQ(root->child_count(), 5u);
  EXPECT_EQ(root->child(0)->name(), "INSTITUTION");
  EXPECT_EQ(root->child(0)->val(), "University of Wisconsin at Madison");
  EXPECT_EQ(root->child(1)->name(), "DEGREE");
  EXPECT_EQ(root->child(1)->val(), "B.S.(");
  EXPECT_EQ(root->child(2)->name(), "MAJOR");
  EXPECT_EQ(root->child(2)->val(), "Computer Science)");
  EXPECT_EQ(root->child(3)->name(), "DATE");
  EXPECT_EQ(root->child(3)->val(), "June 1996");
  EXPECT_EQ(root->child(4)->name(), "GPA");
  EXPECT_EQ(root->child(4)->val(), "GPA 3.8/4.0");
}

TEST_F(InstanceRuleTest, UnidentifiedTokenPassesTextToParent) {
  // §2.3.1 case 2: the token node is deleted, text goes to parent val.
  auto root = Convert("no recognizable payload here");
  EXPECT_EQ(root->child_count(), 0u);
  EXPECT_EQ(root->val(), "no recognizable payload here");
}

TEST_F(InstanceRuleTest, NoTextIsLost) {
  // Mixed identified/unidentified tokens: every character of text ends
  // up either in an element's val or in the parent's val.
  auto root =
      Convert("some preface, June 1996, trailing remark, B.S., closing");
  EXPECT_EQ(root->val(), "some preface trailing remark closing");
  ASSERT_EQ(root->child_count(), 2u);
  EXPECT_EQ(root->child(0)->val(), "June 1996");
  EXPECT_EQ(root->child(1)->val(), "B.S.");
}

TEST_F(InstanceRuleTest, MultiInstanceTokenDecomposed) {
  // §2.3.1 case 1 (multi): a token without delimiters containing two
  // concepts splits at instance boundaries; leading text goes up.
  auto root = Convert("worked at Norwick Software as a Junior Programmer");
  ASSERT_EQ(root->child_count(), 2u);
  EXPECT_EQ(root->child(0)->name(), "COMPANY");
  EXPECT_EQ(root->child(0)->val(), "Software as a Junior");
  EXPECT_EQ(root->child(1)->name(), "JOBTITLE");
  EXPECT_EQ(root->child(1)->val(), "Programmer");
  EXPECT_EQ(root->val(), "worked at Norwick");
}

TEST_F(InstanceRuleTest, AdjacentSameConceptMatchesCoalesce) {
  // "June 1999 - Present" holds three DATE instances but is one date.
  auto root = Convert("June 1999 - Present");
  ASSERT_EQ(root->child_count(), 1u);
  EXPECT_EQ(root->child(0)->name(), "DATE");
  EXPECT_EQ(root->child(0)->val(), "June 1999 - Present");
}

TEST_F(InstanceRuleTest, CollidingInstitutionSplits) {
  // The known failure mode: an embedded LOCATION instance splits the
  // institution token (quantified in bench_accuracy).
  auto root = Convert("University of California");
  ASSERT_EQ(root->child_count(), 2u);
  EXPECT_EQ(root->child(0)->name(), "INSTITUTION");
  EXPECT_EQ(root->child(1)->name(), "LOCATION");
}

TEST_F(InstanceRuleTest, StatsCountIdentification) {
  InstanceRuleStats stats;
  Convert("nothing here, June 1996, also nothing", &stats);
  EXPECT_EQ(stats.tokens_total, 3u);
  EXPECT_EQ(stats.tokens_identified, 1u);
  EXPECT_EQ(stats.elements_created, 1u);
  EXPECT_NEAR(stats.IdentifiedRatio(), 1.0 / 3.0, 1e-9);
}

TEST_F(InstanceRuleTest, StatsRatioOneWhenNoTokens) {
  InstanceRuleStats stats;
  EXPECT_EQ(stats.IdentifiedRatio(), 1.0);
}

TEST_F(InstanceRuleTest, NestedTokensProcessedEverywhere) {
  auto root = Node::MakeElement("body");
  root->AddElement("p")->AddText("June 1996");
  root->AddElement("div")->AddText("B.S.");
  ApplyTokenizationRule(root.get());
  ApplyConceptInstanceRule(root.get(), recognizer_);
  EXPECT_EQ(root->child(0)->child(0)->name(), "DATE");
  EXPECT_EQ(root->child(1)->child(0)->name(), "DEGREE");
}

TEST_F(InstanceRuleTest, SiblingConstraintMergesForbiddenSplit) {
  // With !sibling(COMPANY, JOBTITLE) the second match is merged into the
  // first segment instead of becoming its own element.
  ConstraintSet constraints;
  constraints.Add(
      ConceptConstraint::Sibling("COMPANY", "JOBTITLE", /*negated=*/true));
  auto root = Node::MakeElement("p");
  root->AddText("Norwick Software as Junior Programmer");
  ApplyTokenizationRule(root.get());
  ApplyConceptInstanceRule(root.get(), recognizer_, &constraints);
  ASSERT_EQ(root->child_count(), 1u);
  EXPECT_EQ(root->child(0)->name(), "COMPANY");
  EXPECT_EQ(root->child(0)->val(), "Software as Junior Programmer");
}

TEST_F(InstanceRuleTest, BayesRecognizerClassifiesWholeTokens) {
  BayesClassifier classifier;
  classifier.AddExample("DATE", {"june", "#year#"});
  classifier.AddExample("DATE", {"may", "#year#"});
  classifier.AddExample("INSTITUTION", {"brockhaven", "university"});
  classifier.AddExample("INSTITUTION", {"eastfield", "college"});
  BayesRecognizer bayes(&classifier, &concepts_, /*min_margin=*/0.1);

  auto root = Node::MakeElement("p");
  root->AddText("April 1997");  // unseen month, year shape decides
  ApplyTokenizationRule(root.get());
  ApplyConceptInstanceRule(root.get(), bayes);
  ASSERT_EQ(root->child_count(), 1u);
  EXPECT_EQ(root->child(0)->name(), "DATE");
  EXPECT_EQ(root->child(0)->val(), "April 1997");
}

TEST_F(InstanceRuleTest, HybridFallsBackToBayes) {
  BayesClassifier classifier;
  classifier.AddExample("OBJECTIVE", {"seeking", "role"});
  classifier.AddExample("OBJECTIVE", {"seeking", "opportunity"});
  classifier.AddExample("AWARDS", {"dean's", "list"});
  HybridRecognizer hybrid(&concepts_, &classifier, /*min_margin=*/0.1);

  auto root = Node::MakeElement("p");
  root->AddText("June 1996; seeking a role");
  ApplyTokenizationRule(root.get());
  ApplyConceptInstanceRule(root.get(), hybrid);
  ASSERT_EQ(root->child_count(), 2u);
  EXPECT_EQ(root->child(0)->name(), "DATE");       // synonym path
  EXPECT_EQ(root->child(1)->name(), "OBJECTIVE");  // Bayes fallback
}

}  // namespace
}  // namespace webre
