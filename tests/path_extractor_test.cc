#include <gtest/gtest.h>

#include <algorithm>

#include "schema/path_extractor.h"

namespace webre {
namespace {

// Tree A of Figure 2: resume -> (objective, contact,
// education(degree, date, institution)).
std::unique_ptr<Node> FigureTreeA() {
  auto root = Node::MakeElement("resume");
  root->AddElement("objective");
  root->AddElement("contact");
  Node* education = root->AddElement("education");
  education->AddElement("degree");
  education->AddElement("date");
  education->AddElement("institution");
  return root;
}

std::vector<std::string> JoinedPaths(const DocumentPaths& paths) {
  std::vector<std::string> out;
  for (size_t i = 0; i < paths.size(); ++i) {
    out.push_back(JoinLabelPath(LabelPathAt(paths, i)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Index of the path whose joined form is `joined`; the statistics
// vectors are parallel to the paths.
size_t IndexOf(const DocumentPaths& paths, const std::string& joined) {
  for (size_t i = 0; i < paths.size(); ++i) {
    if (JoinLabelPath(LabelPathAt(paths, i)) == joined) return i;
  }
  ADD_FAILURE() << "path not found: " << joined;
  return 0;
}

TEST(LabelPathTest, JoinAndSplitRoundTrip) {
  LabelPath p = {"resume", "education", "degree"};
  EXPECT_EQ(JoinLabelPath(p), "resume/education/degree");
  EXPECT_EQ(SplitLabelPath("resume/education/degree"), p);
  EXPECT_EQ(JoinLabelPath({}), "");
  EXPECT_TRUE(SplitLabelPath("").empty());
}

TEST(PathExtractorTest, AllRootPathsPresent) {
  DocumentPaths paths = ExtractPaths(*FigureTreeA());
  auto joined = JoinedPaths(paths);
  std::vector<std::string> expected = {
      "resume",
      "resume/contact",
      "resume/education",
      "resume/education/date",
      "resume/education/degree",
      "resume/education/institution",
      "resume/objective"};
  EXPECT_EQ(joined, expected);
}

TEST(PathExtractorTest, DuplicatePathsDeduplicated) {
  // §3.2: a document is a *set* of paths so repeated occurrences in one
  // document do not bias discovery.
  auto root = Node::MakeElement("resume");
  for (int i = 0; i < 3; ++i) {
    root->AddElement("education")->AddElement("date");
  }
  DocumentPaths paths = ExtractPaths(*root);
  EXPECT_EQ(paths.size(), 3u);  // resume, resume/education, .../date
}

TEST(PathExtractorTest, MultiplicityIsMaxSameLabelSiblings) {
  auto root = Node::MakeElement("resume");
  Node* e1 = root->AddElement("education");
  e1->AddElement("date");
  e1->AddElement("date");
  e1->AddElement("date");
  Node* e2 = root->AddElement("education");
  e2->AddElement("date");
  DocumentPaths paths = ExtractPaths(*root);
  ASSERT_EQ(paths.max_multiplicity.size(), paths.size());
  EXPECT_EQ(paths.max_multiplicity[IndexOf(paths, "resume/education/date")],
            3u);
  EXPECT_EQ(paths.max_multiplicity[IndexOf(paths, "resume/education")], 2u);
  EXPECT_EQ(paths.max_multiplicity[IndexOf(paths, "resume")], 1u);
}

TEST(PathExtractorTest, PositionStatsAveragePosition) {
  auto root = Node::MakeElement("resume");
  root->AddElement("contact");    // position 0
  root->AddElement("education");  // position 1
  root->AddElement("education");  // position 2
  DocumentPaths paths = ExtractPaths(*root);
  ASSERT_EQ(paths.position_sum.size(), paths.size());
  ASSERT_EQ(paths.position_count.size(), paths.size());
  const size_t contact = IndexOf(paths, "resume/contact");
  const size_t education = IndexOf(paths, "resume/education");
  EXPECT_DOUBLE_EQ(paths.position_sum[contact], 0.0);
  EXPECT_EQ(paths.position_count[contact], 1u);
  EXPECT_DOUBLE_EQ(paths.position_sum[education], 3.0);
  EXPECT_EQ(paths.position_count[education], 2u);
}

TEST(PathExtractorTest, TextNodesIgnored) {
  auto root = Node::MakeElement("resume");
  root->AddText("text");
  Node* c = root->AddElement("contact");
  c->AddText("more");
  DocumentPaths paths = ExtractPaths(*root);
  EXPECT_EQ(paths.size(), 2u);
  // contact is the first *element* child: position 0 despite the text.
  EXPECT_DOUBLE_EQ(paths.position_sum[IndexOf(paths, "resume/contact")], 0.0);
}

TEST(PathExtractorTest, SingleNodeDocument) {
  auto root = Node::MakeElement("resume");
  DocumentPaths paths = ExtractPaths(*root);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(JoinLabelPath(LabelPathAt(paths, 0)), "resume");
}

TEST(PathExtractorTest, SameLabelAtDifferentDepthsDistinct) {
  auto root = Node::MakeElement("r");
  root->AddElement("a")->AddElement("a");
  DocumentPaths paths = ExtractPaths(*root);
  EXPECT_EQ(paths.size(), 3u);  // r, r/a, r/a/a
}

}  // namespace
}  // namespace webre
