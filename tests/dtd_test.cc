#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "xml/dtd.h"
#include "xml/dtd_validator.h"
#include "xml/node.h"

namespace webre {
namespace {

ContentParticle Seq(std::vector<ContentParticle> members) {
  return ContentParticle::Sequence(std::move(members));
}

Dtd ResumeishDtd() {
  // <!ELEMENT resume ((#PCDATA), contact+, objective?, education+)>
  // <!ELEMENT contact (#PCDATA)> etc.
  Dtd dtd;
  dtd.set_root("resume");
  ElementDecl resume;
  resume.name = "resume";
  resume.content = Seq({ContentParticle::Pcdata(),
                        ContentParticle::Element("contact", Occurrence::kPlus),
                        ContentParticle::Element("objective",
                                                 Occurrence::kOptional),
                        ContentParticle::Element("education",
                                                 Occurrence::kPlus)});
  dtd.AddElement(resume);
  ElementDecl edu;
  edu.name = "education";
  edu.content = Seq({ContentParticle::Element("degree"),
                     ContentParticle::Element("date", Occurrence::kStar)});
  dtd.AddElement(edu);
  for (const char* leaf : {"contact", "objective", "degree", "date"}) {
    ElementDecl d;
    d.name = leaf;
    d.pcdata_only = true;
    dtd.AddElement(d);
  }
  return dtd;
}

TEST(DtdPrintTest, OccurrenceSuffixes) {
  EXPECT_EQ(OccurrenceSuffix(Occurrence::kOne), "");
  EXPECT_EQ(OccurrenceSuffix(Occurrence::kOptional), "?");
  EXPECT_EQ(OccurrenceSuffix(Occurrence::kStar), "*");
  EXPECT_EQ(OccurrenceSuffix(Occurrence::kPlus), "+");
}

TEST(DtdPrintTest, ParticleToString) {
  ContentParticle p = Seq({ContentParticle::Pcdata(),
                           ContentParticle::Element("a", Occurrence::kPlus),
                           ContentParticle::Choice(
                               {ContentParticle::Element("b"),
                                ContentParticle::Element("c")},
                               Occurrence::kOptional)});
  EXPECT_EQ(p.ToString(), "((#PCDATA), a+, (b | c)?)");
}

TEST(DtdPrintTest, ElementDeclToString) {
  Dtd dtd = ResumeishDtd();
  EXPECT_EQ(dtd.Find("contact")->ToString(),
            "<!ELEMENT contact (#PCDATA)>");
  EXPECT_EQ(dtd.Find("resume")->ToString(),
            "<!ELEMENT resume ((#PCDATA), contact+, objective?, "
            "education+)>");
}

TEST(DtdTest, AddElementReplacesByName) {
  Dtd dtd;
  ElementDecl a;
  a.name = "a";
  a.pcdata_only = true;
  dtd.AddElement(a);
  ElementDecl a2;
  a2.name = "a";
  a2.content = Seq({ContentParticle::Element("b")});
  dtd.AddElement(a2);
  EXPECT_EQ(dtd.elements().size(), 1u);
  EXPECT_FALSE(dtd.Find("a")->pcdata_only);
}

std::unique_ptr<Node> ValidResume() {
  auto root = Node::MakeElement("resume");
  root->AddText("text ok");
  root->AddElement("contact");
  root->AddElement("objective");
  Node* edu = root->AddElement("education");
  edu->AddElement("degree");
  edu->AddElement("date");
  edu->AddElement("date");
  return root;
}

TEST(DtdValidatorTest, AcceptsConformingDocument) {
  Dtd dtd = ResumeishDtd();
  auto doc = ValidResume();
  DtdValidationResult result = ValidateAgainstDtd(*doc, dtd);
  EXPECT_TRUE(result.valid()) << result.violations[0].message;
}

TEST(DtdValidatorTest, OptionalElementMayBeAbsent) {
  Dtd dtd = ResumeishDtd();
  auto root = Node::MakeElement("resume");
  root->AddElement("contact");
  Node* edu = root->AddElement("education");
  edu->AddElement("degree");
  EXPECT_TRUE(ConformsToDtd(*root, dtd));
}

TEST(DtdValidatorTest, PlusRequiresAtLeastOne) {
  Dtd dtd = ResumeishDtd();
  auto root = Node::MakeElement("resume");
  root->AddElement("objective");  // missing contact+ and education+
  DtdValidationResult result = ValidateAgainstDtd(*root, dtd);
  EXPECT_FALSE(result.valid());
}

TEST(DtdValidatorTest, PlusAllowsMany) {
  Dtd dtd = ResumeishDtd();
  auto root = Node::MakeElement("resume");
  root->AddElement("contact");
  root->AddElement("contact");
  root->AddElement("contact");
  Node* edu = root->AddElement("education");
  edu->AddElement("degree");
  EXPECT_TRUE(ConformsToDtd(*root, dtd));
}

TEST(DtdValidatorTest, WrongOrderRejected) {
  Dtd dtd = ResumeishDtd();
  auto root = Node::MakeElement("resume");
  Node* edu = root->AddElement("education");  // education before contact
  edu->AddElement("degree");
  root->AddElement("contact");
  EXPECT_FALSE(ConformsToDtd(*root, dtd));
}

TEST(DtdValidatorTest, UndeclaredElementReported) {
  Dtd dtd = ResumeishDtd();
  auto doc = ValidResume();
  doc->child(2)->AddElement("mystery");  // under education
  DtdValidationResult result = ValidateAgainstDtd(*doc, dtd);
  EXPECT_FALSE(result.valid());
  bool found = false;
  for (const DtdViolation& v : result.violations) {
    if (v.message.find("mystery") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DtdValidatorTest, PcdataOnlyRejectsElementChildren) {
  Dtd dtd = ResumeishDtd();
  auto doc = ValidResume();
  ASSERT_EQ(doc->child(1)->name(), "contact");
  doc->child(1)->AddElement("date");  // contact is (#PCDATA)
  EXPECT_FALSE(ConformsToDtd(*doc, dtd));
}

TEST(DtdValidatorTest, RootNameMustMatch) {
  Dtd dtd = ResumeishDtd();
  auto root = Node::MakeElement("cv");
  root->AddElement("contact");
  Node* edu = root->AddElement("education");
  edu->AddElement("degree");
  EXPECT_FALSE(ConformsToDtd(*root, dtd));
}

TEST(DtdValidatorTest, ConformsAgreesWithValidateOnEveryViolationKind) {
  const Dtd dtd = ResumeishDtd();
  std::vector<std::pair<std::string, std::unique_ptr<Node>>> cases;
  cases.emplace_back("valid", ValidResume());
  {
    auto doc = ValidResume();
    doc->child(2)->AddElement("mystery");
    cases.emplace_back("undeclared element", std::move(doc));
  }
  {
    // Declared and matching its own content model: only the root name
    // is wrong.
    auto doc = Node::MakeElement("education");
    doc->AddElement("degree");
    cases.emplace_back("root mismatch", std::move(doc));
  }
  {
    auto doc = ValidResume();
    doc->child(2)->AddElement("degree");  // degree, date, date, degree
    cases.emplace_back("content model mismatch", std::move(doc));
  }
  {
    auto doc = ValidResume();
    doc->child(1)->AddElement("date");  // contact is (#PCDATA)
    cases.emplace_back("#PCDATA element with element children",
                       std::move(doc));
  }
  cases.emplace_back("non-element root", Node::MakeText("text"));
  for (const auto& [name, doc] : cases) {
    const DtdValidationResult result = ValidateAgainstDtd(*doc, dtd);
    EXPECT_EQ(result.valid(), name == "valid") << name;
    EXPECT_EQ(ConformsToDtd(*doc, dtd), result.valid()) << name;
  }
}

TEST(DtdValidatorTest, ValidationContinuesPastFirstViolation) {
  Dtd dtd = ResumeishDtd();
  auto root = Node::MakeElement("resume");
  root->AddElement("unknown1");
  root->AddElement("unknown2");
  DtdValidationResult result = ValidateAgainstDtd(*root, dtd);
  EXPECT_GE(result.violations.size(), 3u);  // content model + 2 undeclared
}

TEST(DtdValidatorTest, ChoiceMatchesEitherBranch) {
  Dtd dtd;
  dtd.set_root("r");
  ElementDecl r;
  r.name = "r";
  r.content = ContentParticle::Choice({ContentParticle::Element("a"),
                                       ContentParticle::Element("b")});
  dtd.AddElement(r);
  for (const char* leaf : {"a", "b"}) {
    ElementDecl d;
    d.name = leaf;
    d.pcdata_only = true;
    dtd.AddElement(d);
  }
  auto doc_a = Node::MakeElement("r");
  doc_a->AddElement("a");
  EXPECT_TRUE(ConformsToDtd(*doc_a, dtd));
  auto doc_b = Node::MakeElement("r");
  doc_b->AddElement("b");
  EXPECT_TRUE(ConformsToDtd(*doc_b, dtd));
  auto doc_ab = Node::MakeElement("r");
  doc_ab->AddElement("a");
  doc_ab->AddElement("b");
  EXPECT_FALSE(ConformsToDtd(*doc_ab, dtd));
}

TEST(DtdValidatorTest, NestedGroupsWithStar) {
  // r := ((a, b)*, c)
  Dtd dtd;
  dtd.set_root("r");
  ElementDecl r;
  r.name = "r";
  r.content = ContentParticle::Sequence(
      {ContentParticle::Sequence({ContentParticle::Element("a"),
                                  ContentParticle::Element("b")},
                                 Occurrence::kStar),
       ContentParticle::Element("c")});
  dtd.AddElement(r);
  for (const char* leaf : {"a", "b", "c"}) {
    ElementDecl d;
    d.name = leaf;
    d.pcdata_only = true;
    dtd.AddElement(d);
  }
  auto ok = Node::MakeElement("r");
  ok->AddElement("a");
  ok->AddElement("b");
  ok->AddElement("a");
  ok->AddElement("b");
  ok->AddElement("c");
  EXPECT_TRUE(ConformsToDtd(*ok, dtd));

  auto bad = Node::MakeElement("r");
  bad->AddElement("a");
  bad->AddElement("c");  // unpaired (a, b)
  EXPECT_FALSE(ConformsToDtd(*bad, dtd));

  auto just_c = Node::MakeElement("r");
  just_c->AddElement("c");
  EXPECT_TRUE(ConformsToDtd(*just_c, dtd));
}

}  // namespace
}  // namespace webre
