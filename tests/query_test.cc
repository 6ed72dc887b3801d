#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "repository/query.h"
#include "xml/flat_doc.h"
#include "xml/node.h"

namespace webre {
namespace {

// resume(NAME, EDUCATION(DATE(INSTITUTION, DEGREE), DATE(INSTITUTION)),
//        SKILLS(LANGUAGE, LANGUAGE))
// Pre-order positions: resume 0, NAME 1, EDUCATION 2, DATE 3,
// INSTITUTION 4, DEGREE 5, DATE 6, INSTITUTION 7, SKILLS 8,
// LANGUAGE 9, LANGUAGE 10.
std::unique_ptr<Node> SampleDoc() {
  auto root = Node::MakeElement("resume");
  root->AddElement("NAME")->set_val("Resume of Jane Doe");
  Node* education = root->AddElement("EDUCATION");
  Node* d1 = education->AddElement("DATE");
  d1->set_val("June 1996");
  d1->AddElement("INSTITUTION")->set_val("Brockhaven University");
  d1->AddElement("DEGREE")->set_val("B.S.");
  Node* d2 = education->AddElement("DATE");
  d2->set_val("May 1998");
  d2->AddElement("INSTITUTION")->set_val("Eastfield College");
  Node* skills = root->AddElement("SKILLS");
  skills->AddElement("LANGUAGE")->set_val("C++");
  skills->AddElement("LANGUAGE")->set_val("Java");
  return root;
}

// One match: (pre-order position, element name, val).
using Hit = std::tuple<uint32_t, std::string, std::string>;

// Evaluates `text` over the frozen sample document.
std::vector<Hit> Eval(const char* text) {
  auto q = PathQuery::Parse(text);
  EXPECT_TRUE(q.ok()) << q.status();
  if (!q.ok()) return {};
  const auto flat = FlatDoc::Freeze(*SampleDoc());
  std::vector<Hit> hits;
  for (uint32_t e : q->Evaluate(*flat)) {
    hits.emplace_back(e, std::string(flat->name_view(e)),
                      std::string(flat->val(e)));
  }
  return hits;
}

TEST(QueryParseTest, SimpleAbsolutePath) {
  auto q = PathQuery::Parse("/resume/EDUCATION/DATE");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->steps().size(), 3u);
  EXPECT_TRUE(q->IsSimplePath());
  EXPECT_EQ(q->AsLabelPath(),
            (std::vector<std::string>{"resume", "EDUCATION", "DATE"}));
  EXPECT_EQ(q->ToString(), "/resume/EDUCATION/DATE");
}

TEST(QueryParseTest, DescendantAxis) {
  auto q = PathQuery::Parse("//DATE");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->steps()[0].descendant);
  EXPECT_FALSE(q->IsSimplePath());
}

TEST(QueryParseTest, WildcardAndPredicate) {
  auto q = PathQuery::Parse("/resume/*/DATE[val~\"1996\"]");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->steps()[1].name, "*");
  EXPECT_EQ(q->steps()[2].val_contains, "1996");
  EXPECT_EQ(q->ToString(), "/resume/*/DATE[val~\"1996\"]");
}

TEST(QueryParseTest, Errors) {
  EXPECT_FALSE(PathQuery::Parse("").ok());
  EXPECT_FALSE(PathQuery::Parse("resume/DATE").ok());   // no leading /
  EXPECT_FALSE(PathQuery::Parse("/resume//").ok());     // empty step
  EXPECT_FALSE(PathQuery::Parse("/a[val~\"x]").ok());   // unterminated
  EXPECT_FALSE(PathQuery::Parse("/a[foo=\"x\"]").ok()); // unknown predicate
  EXPECT_FALSE(PathQuery::Parse("/res*me").ok());       // partial wildcard
}

TEST(QueryEvalTest, ExactPath) {
  EXPECT_EQ(Eval("/resume/EDUCATION/DATE"),
            (std::vector<Hit>{{3, "DATE", "June 1996"},
                              {6, "DATE", "May 1998"}}));
}

TEST(QueryEvalTest, RootMismatchGivesNothing) {
  EXPECT_TRUE(Eval("/cv/EDUCATION").empty());
}

TEST(QueryEvalTest, DescendantAnywhere) {
  EXPECT_EQ(Eval("//INSTITUTION"),
            (std::vector<Hit>{{4, "INSTITUTION", "Brockhaven University"},
                              {7, "INSTITUTION", "Eastfield College"}}));
}

TEST(QueryEvalTest, DescendantUnderStep) {
  const std::vector<Hit> hits = Eval("/resume/EDUCATION//INSTITUTION");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(std::get<0>(hits[0]), 4u);
  EXPECT_EQ(std::get<0>(hits[1]), 7u);
  EXPECT_TRUE(Eval("/resume/SKILLS//INSTITUTION").empty());
}

TEST(QueryEvalTest, WildcardStep) {
  const std::vector<Hit> hits = Eval("/resume/*");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0], (Hit{1, "NAME", "Resume of Jane Doe"}));
  EXPECT_EQ(hits[1], (Hit{2, "EDUCATION", ""}));
  EXPECT_EQ(hits[2], (Hit{8, "SKILLS", ""}));
}

TEST(QueryEvalTest, ValPredicateFilters) {
  EXPECT_EQ(Eval("//DATE[val~\"1996\"]"),
            (std::vector<Hit>{{3, "DATE", "June 1996"}}));
}

TEST(QueryEvalTest, ValPredicateCaseInsensitive) {
  EXPECT_EQ(Eval("//LANGUAGE[val~\"java\"]"),
            (std::vector<Hit>{{10, "LANGUAGE", "Java"}}));
}

TEST(QueryEvalTest, DescendantSelfIncludesRoot) {
  EXPECT_EQ(Eval("//resume"), (std::vector<Hit>{{0, "resume", ""}}));
}

TEST(QueryEvalTest, NoDuplicatesUnderOverlappingFrontiers) {
  // //*//LANGUAGE could reach each LANGUAGE via several ancestors.
  EXPECT_EQ(Eval("//*//LANGUAGE"),
            (std::vector<Hit>{{9, "LANGUAGE", "C++"},
                              {10, "LANGUAGE", "Java"}}));
}

TEST(QueryEvalTest, PredicateOnIntermediateStep) {
  EXPECT_EQ(Eval("/resume/EDUCATION/DATE[val~\"May\"]/INSTITUTION"),
            (std::vector<Hit>{{7, "INSTITUTION", "Eastfield College"}}));
}

}  // namespace
}  // namespace webre
