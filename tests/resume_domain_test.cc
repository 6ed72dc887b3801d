#include <gtest/gtest.h>

#include <set>

#include "concepts/resume_domain.h"

namespace webre {
namespace {

TEST(ResumeDomainTest, PaperCounts) {
  // §4: "There are 24 concept names and a total of 233 concept instances
  // specified as domain knowledge."
  ConceptSet set = ResumeConcepts();
  EXPECT_EQ(set.size(), 24u);
  EXPECT_EQ(set.TotalInstanceCount(), 233u);
}

TEST(ResumeDomainTest, TitleContentSplit) {
  // §4.2: "Out of the 24 concept names, 11 are title names and 13 are
  // content names."
  EXPECT_EQ(ResumeTitleConceptNames().size(), 11u);
  EXPECT_EQ(ResumeContentConceptNames().size(), 13u);

  ConceptSet set = ResumeConcepts();
  std::set<std::string> all;
  for (const std::string& name : ResumeTitleConceptNames()) {
    EXPECT_TRUE(set.Contains(name)) << name;
    all.insert(name);
  }
  for (const std::string& name : ResumeContentConceptNames()) {
    EXPECT_TRUE(set.Contains(name)) << name;
    all.insert(name);
  }
  EXPECT_EQ(all.size(), 24u);  // disjoint and complete
}

TEST(ResumeDomainTest, ConceptNamesUppercase) {
  // Concept elements must never collide with lowercased HTML tags.
  ConceptSet set = ResumeConcepts();
  for (const Concept& c : set.concepts()) {
    for (char ch : c.name) {
      EXPECT_TRUE(ch >= 'A' && ch <= 'Z') << c.name;
    }
  }
}

TEST(ResumeDomainTest, RecognizesPaperExample) {
  // §2.3.1's topic sentence (modulo the GPA value).
  ConceptSet set = ResumeConcepts();
  auto matches = set.MatchAll(
      "University of California at Davis, B.S.(Computer Science), "
      "June 1996, GPA 3.8/4.0");
  std::set<std::string> concepts;
  for (const InstanceMatch& m : matches) {
    concepts.insert(std::string(m.concept_name));
  }
  EXPECT_TRUE(concepts.count("INSTITUTION"));
  EXPECT_TRUE(concepts.count("DEGREE"));
  EXPECT_TRUE(concepts.count("DATE"));
  EXPECT_TRUE(concepts.count("GPA"));
}

TEST(ResumeDomainTest, SectionHeadingsRecognized) {
  ConceptSet set = ResumeConcepts();
  EXPECT_EQ(set.MatchFirst("Education").concept_name, "EDUCATION");
  EXPECT_EQ(set.MatchFirst("Work Experience").concept_name, "EXPERIENCE");
  EXPECT_EQ(set.MatchFirst("Technical Skills").concept_name, "SKILLS");
  EXPECT_EQ(set.MatchFirst("References").concept_name, "REFERENCE");
  EXPECT_EQ(set.MatchFirst("Relevant Coursework").concept_name, "COURSES");
}

TEST(ResumeDomainTest, ConstraintsMatchPaperSetup) {
  ConstraintSet constraints = ResumeConstraints();
  EXPECT_TRUE(constraints.no_repeat_on_path());
  EXPECT_EQ(constraints.max_level(), 3u);
  // Title concepts only at level 1.
  EXPECT_TRUE(constraints.AllowedAtLevel(InternName("EDUCATION"), 1));
  EXPECT_FALSE(constraints.AllowedAtLevel(InternName("EDUCATION"), 2));
  // Content concepts only below level 1.
  EXPECT_FALSE(constraints.AllowedAtLevel(InternName("DATE"), 1));
  EXPECT_TRUE(constraints.AllowedAtLevel(InternName("DATE"), 2));
  EXPECT_TRUE(constraints.AllowedAtLevel(InternName("DATE"), 3));
  EXPECT_FALSE(constraints.AllowedAtLevel(InternName("DATE"), 4));  // max level
}

TEST(ResumeDomainTest, InstancesDoNotShadowEachOtherAcrossConcepts) {
  // No instance string appears under two different concepts (homonyms
  // are resolved by context in the paper, not by duplicate instances).
  ConceptSet set = ResumeConcepts();
  std::set<std::string> seen;
  for (const Concept& c : set.concepts()) {
    for (const std::string& instance : c.instances) {
      EXPECT_TRUE(seen.insert(instance).second)
          << "duplicate instance: " << instance;
    }
  }
}

}  // namespace
}  // namespace webre
