// Differential test of the one-pass text rules (ApplyTextRules) against
// the tokenization and concept instance rules they fuse
// (text_rules_oracle.h): on generated pages of every author style from
// two seeds, on hand-made corner cases and on caller-built trees that
// already contain TOKEN elements, both must leave the same tree and the
// same WriteXml bytes, count the same tokens and report the same
// InstanceRuleStats. The converter, which runs the pass, must still write
// what the two-rule sequence wrote.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "concepts/resume_domain.h"
#include "corpus/resume_generator.h"
#include "html/parser.h"
#include "html/tidy.h"
#include "restructure/consolidation_rule.h"
#include "restructure/converter.h"
#include "restructure/grouping_rule.h"
#include "restructure/recognizer.h"
#include "restructure/text_rules.h"
#include "text_rules_oracle.h"
#include "xml/writer.h"

namespace webre {
namespace {

void ExpectSameStats(const InstanceRuleStats& got,
                     const InstanceRuleStats& want, const std::string& what) {
  EXPECT_EQ(got.tokens_total, want.tokens_total) << what;
  EXPECT_EQ(got.tokens_identified, want.tokens_identified) << what;
  EXPECT_EQ(got.tokens_via_synonym, want.tokens_via_synonym) << what;
  EXPECT_EQ(got.tokens_via_bayes, want.tokens_via_bayes) << what;
  EXPECT_EQ(got.elements_created, want.elements_created) << what;
  EXPECT_EQ(got.segments_vetoed, want.segments_vetoed) << what;
}

// Runs both implementations on copies of `input` and expects identical
// results; returns the oracle's stats.
InstanceRuleStats ExpectSameRules(const Node& input,
                                  const ConceptRecognizer& recognizer,
                                  const ConstraintSet* constraints,
                                  const std::string& what,
                                  const TokenizeOptions& options = {}) {
  std::unique_ptr<Node> want = input.Clone();
  const size_t want_tokens =
      oracle::ApplyTokenizationRule(want.get(), options);
  const InstanceRuleStats want_stats =
      oracle::ApplyConceptInstanceRule(want.get(), recognizer, constraints);

  std::unique_ptr<Node> got = input.Clone();
  const TextSplitter splitter(options.delimiters);
  const size_t got_tokens = MeasureText(*got, splitter).tokens;
  const InstanceRuleStats got_stats =
      ApplyTextRules(got.get(), splitter, recognizer, constraints);

  EXPECT_TRUE(*got == *want) << what << "\n got: " << got->DebugString()
                             << "\nwant: " << want->DebugString();
  EXPECT_EQ(WriteXml(*got), WriteXml(*want)) << what;
  EXPECT_EQ(got_tokens, want_tokens) << what;
  ExpectSameStats(got_stats, want_stats, what);
  return want_stats;
}

// The conversion path as it ran with the two separate rules.
std::unique_ptr<Node> OracleConvert(std::unique_ptr<Node> tree,
                                    const ConceptSet& concepts,
                                    const ConceptRecognizer& recognizer,
                                    const ConstraintSet* constraints,
                                    ConvertStats& stats) {
  TidyHtmlTree(tree.get());
  stats.tokens_created = oracle::ApplyTokenizationRule(tree.get());
  stats.instance =
      oracle::ApplyConceptInstanceRule(tree.get(), recognizer, constraints);
  stats.groups_created = ApplyGroupingRule(tree.get());
  stats.consolidation =
      ApplyConsolidationRule(tree.get(), concepts, constraints);
  tree->set_name("resume");
  stats.concept_nodes = tree->SubtreeSize() - 1;
  return tree;
}

void ExpectSameConversion(const Node& got, const ConvertStats& got_stats,
                          const Node& want, const ConvertStats& want_stats,
                          const std::string& what) {
  EXPECT_EQ(WriteXml(got), WriteXml(want)) << what;
  EXPECT_EQ(got_stats.tokens_created, want_stats.tokens_created) << what;
  ExpectSameStats(got_stats.instance, want_stats.instance, what);
  EXPECT_EQ(got_stats.groups_created, want_stats.groups_created) << what;
  EXPECT_EQ(got_stats.consolidation.nodes_deleted,
            want_stats.consolidation.nodes_deleted)
      << what;
  EXPECT_EQ(got_stats.consolidation.nodes_pushed_up,
            want_stats.consolidation.nodes_pushed_up)
      << what;
  EXPECT_EQ(got_stats.consolidation.nodes_replaced,
            want_stats.consolidation.nodes_replaced)
      << what;
  EXPECT_EQ(got_stats.consolidation.replacements_vetoed,
            want_stats.consolidation.replacements_vetoed)
      << what;
  EXPECT_EQ(got_stats.concept_nodes, want_stats.concept_nodes) << what;
}

// Recognizes every token, the empty one included, as DATE over its whole
// text — plus a JOBTITLE from its first space on, when it has one — so
// the caller-built TOKEN case reaches decomposition through the default
// RecognizeInto.
class EverythingRecognizer : public ConceptRecognizer {
 public:
  explicit EverythingRecognizer(const ConceptSet* concepts)
      : date_(concepts->IndexOf("DATE")),
        jobtitle_(concepts->IndexOf("JOBTITLE")) {}

  std::vector<InstanceMatch> Recognize(
      std::string_view text) const override {
    std::vector<InstanceMatch> matches{
        InstanceMatch{date_, "DATE", 0, text.size(), false,
                      InternName("DATE")}};
    const size_t space = text.find(' ');
    if (space != std::string_view::npos) {
      matches[0].length = space;
      matches.push_back(
          InstanceMatch{jobtitle_, "JOBTITLE", space, text.size() - space,
                        false, InternName("JOBTITLE")});
    }
    return matches;
  }

 private:
  size_t date_;
  size_t jobtitle_;
};

class TextRulesDifferentialTest : public ::testing::Test {
 protected:
  TextRulesDifferentialTest()
      : concepts_(ResumeConcepts()),
        constraints_(ResumeConstraints()),
        recognizer_(&concepts_),
        converter_(&concepts_, &recognizer_, &constraints_) {}

  // <p>text</p>
  static std::unique_ptr<Node> Paragraph(std::string_view text) {
    auto root = Node::MakeElement("p");
    root->AddText(std::string(text));
    return root;
  }

  ConceptSet concepts_;
  ConstraintSet constraints_;
  SynonymRecognizer recognizer_;
  DocumentConverter converter_;
};

class GeneratedPagesTest : public TextRulesDifferentialTest,
                           public ::testing::WithParamInterface<uint64_t> {};

TEST_P(GeneratedPagesTest, EveryStyleMatchesTheTwoRules) {
  constexpr size_t kPagesPerStyle = 5;
  CorpusOptions corpus;
  corpus.seed = GetParam();
  InstanceRuleStats totals;
  for (size_t style = 0; style < StyleCount(); ++style) {
    corpus.fixed_style = static_cast<int>(style);
    for (size_t i = 0; i < kPagesPerStyle; ++i) {
      const std::string html =
          GenerateResume(style * kPagesPerStyle + i, corpus).html;
      const std::string what = "style " + std::to_string(style) + " page " +
                               std::to_string(i);
      // The rules alone, on the raw and on the tidied parse.
      std::unique_ptr<Node> tree = ParseHtml(html);
      ExpectSameRules(*tree, recognizer_, &constraints_, what + " raw");
      TidyHtmlTree(tree.get());
      const InstanceRuleStats stats =
          ExpectSameRules(*tree, recognizer_, &constraints_, what);
      ExpectSameRules(*tree, recognizer_, nullptr, what + " unconstrained");
      totals.tokens_total += stats.tokens_total;
      totals.elements_created += stats.elements_created;
      totals.tokens_identified += stats.tokens_identified;

      // The whole conversion, through both entry points.
      ConvertStats want_stats;
      std::unique_ptr<Node> want =
          OracleConvert(ParseHtml(html), concepts_, recognizer_,
                        &constraints_, want_stats);
      ConvertStats got_stats;
      std::unique_ptr<Node> got = converter_.Convert(html, &got_stats);
      ExpectSameConversion(*got, got_stats, *want, want_stats,
                           what + " Convert");
      ConvertStats tried_stats;
      StatusOr<std::unique_ptr<Node>> tried =
          converter_.TryConvert(html, &tried_stats);
      ASSERT_TRUE(tried.ok()) << what;
      ExpectSameConversion(*tried.value(), tried_stats, *want, want_stats,
                           what + " TryConvert");
    }
  }
  // The pages reach every case of the instance rule (sibling vetoes
  // only on the hand-made cases below: the resume constraints veto no
  // generated token).
  EXPECT_GT(totals.tokens_identified, 0u);
  EXPECT_LT(totals.tokens_identified, totals.tokens_total);
  EXPECT_GT(totals.elements_created, totals.tokens_identified);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedPagesTest,
                         ::testing::Values(uint64_t{20020226}, uint64_t{1}));

TEST_F(TextRulesDifferentialTest, DelimiterRunsAndWhitespacePieces) {
  for (const char* text :
       {"", " ", ",", ",,;;::", "  ,, ;: , \t\n ,June 1996,,  ,B.S.;;  ",
        "\t;\n", "a,,b", " ; June 1996 ; ", "no delimiters at all"}) {
    ExpectSameRules(*Paragraph(text), recognizer_, &constraints_,
                    std::string("text '") + text + "'");
  }
  // A delimiter that is also whitespace, and one that is not ASCII.
  TokenizeOptions options;
  options.delimiters = " \t|\xC2";
  for (const char* text : {"June 1996 | B.S.", "a\t\tb", "\xC2\xA0June 1996"}) {
    ExpectSameRules(*Paragraph(text), recognizer_, &constraints_,
                    std::string("custom delimiters '") + text + "'", options);
  }
}

TEST_F(TextRulesDifferentialTest, MultiInstanceTokensWithSiblingVetoes) {
  ConstraintSet veto;
  veto.Add(ConceptConstraint::Sibling("COMPANY", "JOBTITLE", /*negated=*/true));
  const InstanceRuleStats stats = ExpectSameRules(
      *Paragraph("worked at Norwick Software as a Junior Programmer; "
                 "Norwick Software as Junior Programmer, June 1996"),
      recognizer_, &veto, "vetoed");
  EXPECT_GT(stats.segments_vetoed, 0u);
  ExpectSameRules(*Paragraph("University of California at Davis, B.S. "
                             "(Computer Science) June 1999 - Present"),
                  recognizer_, &constraints_, "resume constraints");
  ExpectSameRules(*Paragraph("worked at Norwick Software as a Junior "
                             "Programmer"),
                  recognizer_, nullptr, "unconstrained");
}

TEST_F(TextRulesDifferentialTest, ParentThatAlreadyCarriesVal) {
  auto root = Paragraph("preface, June 1996, trailing remark");
  root->set_val("given");
  root->set_attr("class", "x");
  ExpectSameRules(*root, recognizer_, &constraints_, "val first");
  auto later = Node::MakeElement("p");
  later->set_attr("class", "x");
  later->set_val("given");
  later->AddText("worked at Norwick Software as a Junior Programmer");
  ExpectSameRules(*later, recognizer_, &constraints_, "val second");
}

TEST_F(TextRulesDifferentialTest, TextInterleavedWithElementChildren) {
  auto root = Node::MakeElement("div");
  root->AddText("a, June 1996");
  Node* bold = root->AddElement("b");
  bold->AddText("B.S., left over");
  bold->AddElement("i")->AddText("deeper; Programmer");
  bold->AddText("after the child");
  root->AddText("y; Programmer");
  root->AddElement("br");
  root->AddText(" , ");
  root->AddElement("span")->AddElement("em");
  root->AddText("tail text");
  ExpectSameRules(*root, recognizer_, &constraints_, "interleaved");
}

TEST_F(TextRulesDifferentialTest, CallerBuiltTokenElements) {
  auto build = [] {
    auto root = Node::MakeElement("html");
    Node* body = root->AddElement("body");
    Node* token = body->AddElement(kTokenTag);
    token->AddText("June 1996, B.S.");
    token->AddElement("b")->AddText("Programmer");
    token->AddElement(kTokenTag)->AddText("nested, token");
    body->AddElement("p")->AddText("x, June 1996");
    body->AddElement(kTokenTag);  // empty
    root->AddElement(kTokenTag)->AddText("under the root");
    body->AddText("loose, Junior Programmer");
    return root;
  };
  ExpectSameRules(*build(), recognizer_, &constraints_, "synonym");
  ExpectSameRules(*Node::MakeText("June 1996, B.S."), recognizer_,
                  &constraints_, "text root");
  const EverythingRecognizer everything(&concepts_);
  const InstanceRuleStats stats =
      ExpectSameRules(*build(), everything, nullptr, "everything");
  EXPECT_EQ(stats.tokens_identified, stats.tokens_total);

  // Through the guarded caller-tree entry point.
  ConvertStats want_stats;
  std::unique_ptr<Node> want = OracleConvert(
      build(), concepts_, recognizer_, &constraints_, want_stats);
  ConvertStats got_stats;
  StatusOr<std::unique_ptr<Node>> got =
      converter_.TryConvertTree(build(), &got_stats);
  ASSERT_TRUE(got.ok());
  ExpectSameConversion(*got.value(), got_stats, *want, want_stats,
                       "TryConvertTree");
  // Tokens inside a caller-built TOKEN are charged although the element
  // and its subtree are dropped.
  EXPECT_EQ(got_stats.tokens_created, 10u);
}

TEST_F(TextRulesDifferentialTest, SplitterVisitsTheTokenizationRulesPieces) {
  const TextSplitter splitter(TokenizeOptions{}.delimiters);
  for (const char* text : {"", " , ", "a", " a ,b;; c :d ", ",x,", "\n\t"}) {
    auto root = Paragraph(text);
    const size_t created = oracle::ApplyTokenizationRule(root.get());
    std::vector<std::string> want;
    for (size_t i = 0; i < root->child_count(); ++i) {
      want.push_back(root->child(i)->child(0)->text());
    }
    std::vector<std::string> got;
    splitter.ForEachToken(text, [&](std::string_view token) {
      got.emplace_back(token);
    });
    EXPECT_EQ(got, want) << "'" << text << "'";
    EXPECT_EQ(splitter.CountText(text).tokens, created) << "'" << text << "'";
  }
}

}  // namespace
}  // namespace webre
