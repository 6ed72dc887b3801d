#include <gtest/gtest.h>

#include "html/parser.h"
#include "text_rules_oracle.h"

namespace webre {
namespace {

using oracle::ApplyTokenizationRule;

// Collects the texts of all TOKEN nodes in pre-order.
std::vector<std::string> TokenTexts(const Node& root) {
  std::vector<std::string> texts;
  root.PreOrder([&](const Node& n) {
    if (n.is_element() && n.name() == kTokenTag) {
      std::string text;
      for (size_t i = 0; i < n.child_count(); ++i) {
        if (n.child(i)->is_text()) text += n.child(i)->text();
      }
      texts.push_back(text);
    }
  });
  return texts;
}

TEST(TokenizeRuleTest, PaperTopicSentence) {
  // §2.3.1: the topic sentence splits into four tokens at commas.
  auto root = Node::MakeElement("p");
  root->AddText(
      "University of California at Davis, B.S.(Computer Science), "
      "June 1996, GPA 3.8/4.0");
  size_t created = ApplyTokenizationRule(root.get());
  EXPECT_EQ(created, 4u);
  auto texts = TokenTexts(*root);
  ASSERT_EQ(texts.size(), 4u);
  EXPECT_EQ(texts[0], "University of California at Davis");
  EXPECT_EQ(texts[1], "B.S.(Computer Science)");
  EXPECT_EQ(texts[2], "June 1996");
  EXPECT_EQ(texts[3], "GPA 3.8/4.0");
}

TEST(TokenizeRuleTest, TextWithoutDelimitersIsOneToken) {
  auto root = Node::MakeElement("p");
  root->AddText("just one piece");
  EXPECT_EQ(ApplyTokenizationRule(root.get()), 1u);
  EXPECT_EQ(root->child_count(), 1u);
  EXPECT_EQ(root->child(0)->name(), kTokenTag);
}

TEST(TokenizeRuleTest, TokensReplaceTextInPlace) {
  auto root = Node::MakeElement("p");
  root->AddElement("b");
  root->AddText("a, b");
  root->AddElement("i");
  ApplyTokenizationRule(root.get());
  ASSERT_EQ(root->child_count(), 4u);
  EXPECT_EQ(root->child(0)->name(), "b");
  EXPECT_EQ(root->child(1)->name(), kTokenTag);
  EXPECT_EQ(root->child(2)->name(), kTokenTag);
  EXPECT_EQ(root->child(3)->name(), "i");
}

TEST(TokenizeRuleTest, RecursesIntoElements) {
  auto root = Node::MakeElement("div");
  root->AddElement("p")->AddText("x; y");
  EXPECT_EQ(ApplyTokenizationRule(root.get()), 2u);
}

TEST(TokenizeRuleTest, SemicolonAndColonDelimiters) {
  auto root = Node::MakeElement("p");
  root->AddText("Phone: 555-0134; Fax: 555-0199");
  auto created = ApplyTokenizationRule(root.get());
  EXPECT_EQ(created, 4u);
  auto texts = TokenTexts(*root);
  EXPECT_EQ(texts[0], "Phone");
  EXPECT_EQ(texts[1], "555-0134");
}

TEST(TokenizeRuleTest, EmptyPiecesDropped) {
  auto root = Node::MakeElement("p");
  root->AddText(", , a ,, b ,");
  EXPECT_EQ(ApplyTokenizationRule(root.get()), 2u);
}

TEST(TokenizeRuleTest, WhitespaceTrimmedFromTokens) {
  auto root = Node::MakeElement("p");
  root->AddText("  a ,   b  ");
  ApplyTokenizationRule(root.get());
  auto texts = TokenTexts(*root);
  EXPECT_EQ(texts[0], "a");
  EXPECT_EQ(texts[1], "b");
}

TEST(TokenizeRuleTest, CustomDelimiters) {
  TokenizeOptions options;
  options.delimiters = "|";
  auto root = Node::MakeElement("p");
  root->AddText("a | b, c");
  ApplyTokenizationRule(root.get(), options);
  auto texts = TokenTexts(*root);
  ASSERT_EQ(texts.size(), 2u);
  EXPECT_EQ(texts[1], "b, c");  // comma not a delimiter here
}

TEST(TokenizeRuleTest, WorksOnParsedHtml) {
  auto root = ParseHtml("<body><p>one, two</p><ul><li>three</li></ul></body>");
  size_t created = ApplyTokenizationRule(root.get());
  EXPECT_EQ(created, 3u);
}

TEST(TokenizeRuleTest, NoTextNodesRemainAfterRule) {
  auto root = ParseHtml("<body><p>a, b</p>c; d</body>");
  ApplyTokenizationRule(root.get());
  size_t loose_text = 0;
  root->PreOrder([&](const Node& n) {
    if (n.is_text() && n.parent() != nullptr &&
        n.parent()->name() != kTokenTag) {
      ++loose_text;
    }
  });
  EXPECT_EQ(loose_text, 0u);
}

TEST(TokenizeRuleTest, NullRootIsNoop) {
  EXPECT_EQ(ApplyTokenizationRule(nullptr), 0u);
}

}  // namespace
}  // namespace webre
