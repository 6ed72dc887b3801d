// Differential test of the compiled DocumentMapper against the
// string-keyed mapper it replaced (document_mapper_oracle.h). On pages of
// every author style from two seeds, mapped against a majority schema, a
// Data Guide and a lower-bound schema — which exercise reorder, splice,
// merge and insert hard — ConformToSchema and DocumentMapper::Conform
// must write the oracle's bytes and repeat every field of its report.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "concepts/resume_domain.h"
#include "corpus/resume_generator.h"
#include "document_mapper_oracle.h"
#include "mapping/document_mapper.h"
#include "restructure/converter.h"
#include "restructure/recognizer.h"
#include "schema/dtd_builder.h"
#include "schema/frequent_paths.h"
#include "xml/writer.h"

namespace webre {
namespace {

// Report totals over a suite, to show the inputs reach every edit step.
struct Totals {
  size_t removed = 0;
  size_t inserted = 0;
  size_t moves = 0;
  size_t conforming = 0;
};

// Maps `doc` three ways and expects identical output; returns the
// oracle's report.
MappingReport ExpectSameMapping(const Node& doc, const MajoritySchema& schema,
                                const Dtd& dtd, const DocumentMapper& mapper,
                                const std::string& what) {
  const ConformResult expected = oracle::ConformToSchema(doc, schema, dtd);
  const ConformResult priced = ConformToSchema(doc, schema, dtd);
  const ConformResult compiled = mapper.Conform(doc);
  const std::string expected_xml = WriteXml(*expected.document);
  EXPECT_EQ(WriteXml(*priced.document), expected_xml) << what;
  EXPECT_EQ(WriteXml(*compiled.document), expected_xml) << what;
  for (const ConformResult* got : {&priced, &compiled}) {
    EXPECT_EQ(got->report.nodes_removed, expected.report.nodes_removed)
        << what;
    EXPECT_EQ(got->report.nodes_inserted, expected.report.nodes_inserted)
        << what;
    EXPECT_EQ(got->report.reorder_moves, expected.report.reorder_moves)
        << what;
    EXPECT_EQ(got->report.conforms, expected.report.conforms) << what;
  }
  EXPECT_EQ(priced.report.edit_distance, expected.report.edit_distance)
      << what;
  // The compiled mapper does not price the edit.
  EXPECT_EQ(compiled.report.edit_distance, 0.0) << what;
  return expected.report;
}

class MappingDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  MappingDifferentialTest()
      : concepts_(ResumeConcepts()),
        constraints_(ResumeConstraints()),
        recognizer_(&concepts_),
        converter_(&concepts_, &recognizer_, &constraints_) {}

  ConceptSet concepts_;
  ConstraintSet constraints_;
  SynonymRecognizer recognizer_;
  DocumentConverter converter_;
};

TEST_P(MappingDifferentialTest, EveryStyleAgainstThreeSchemas) {
  constexpr size_t kPagesPerStyle = 4;
  MiningOptions mining;
  mining.constraints = &constraints_;
  FrequentPathMiner miner(mining);
  std::vector<std::unique_ptr<Node>> docs;
  CorpusOptions corpus;
  corpus.seed = GetParam();
  for (size_t style = 0; style < StyleCount(); ++style) {
    corpus.fixed_style = static_cast<int>(style);
    for (size_t i = 0; i < kPagesPerStyle; ++i) {
      docs.push_back(converter_.Convert(
          GenerateResume(style * kPagesPerStyle + i, corpus).html));
      miner.AddDocument(*docs.back());
    }
  }
  ASSERT_EQ(docs.size(), 12 * kPagesPerStyle);

  const struct {
    const char* name;
    MajoritySchema schema;
  } schemas[] = {
      {"majority", miner.Discover()},
      {"data_guide", DiscoverDataGuide(miner)},
      {"lower_bound", DiscoverLowerBound(miner)},
  };
  for (const auto& [name, schema] : schemas) {
    ASSERT_FALSE(schema.empty()) << name;
    // Both DTD shapes: every child required, and rare children optional
    // (which turns insertion off for them).
    for (const bool mark_optional : {false, true}) {
      DtdBuildOptions dtd_options;
      dtd_options.mark_optional = mark_optional;
      const Dtd dtd = BuildDtd(schema, dtd_options);
      const DocumentMapper mapper(schema, dtd);
      Totals totals;
      for (size_t i = 0; i < docs.size(); ++i) {
        const MappingReport report = ExpectSameMapping(
            *docs[i], schema, dtd, mapper,
            std::string(name) + (mark_optional ? " optional" : "") +
                " doc " + std::to_string(i));
        totals.removed += report.nodes_removed;
        totals.inserted += report.nodes_inserted;
        totals.moves += report.reorder_moves;
        totals.conforming += report.conforms ? 1 : 0;
      }
      SCOPED_TRACE(std::string(name) +
                   (mark_optional ? " optional" : " required"));
      EXPECT_GT(totals.conforming, 0u);
      if (std::string(name) == "lower_bound") {
        EXPECT_GT(totals.removed, 0u);
      }
      if (std::string(name) == "data_guide" && !mark_optional) {
        EXPECT_GT(totals.inserted, 0u);
      }
      if (std::string(name) == "majority") {
        EXPECT_GT(totals.moves, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappingDifferentialTest,
                         ::testing::Values(uint64_t{20020226}, uint64_t{1}));

SchemaNode Leaf(const std::string& label, double rep = 0.0) {
  SchemaNode node;
  node.label = label;
  node.rep_fraction = rep;
  node.doc_count = 10;
  return node;
}

// resume -> contact, education+ -> (degree, date)
MajoritySchema SmallSchema() {
  SchemaNode root = Leaf("resume");
  root.children.push_back(Leaf("contact"));
  SchemaNode education = Leaf("education", /*rep=*/0.9);
  education.children.push_back(Leaf("degree"));
  education.children.push_back(Leaf("date"));
  root.children.push_back(education);
  return MajoritySchema(std::move(root));
}

std::unique_ptr<Node> MessyDocument(const std::string& root_name) {
  auto doc = Node::MakeElement(root_name);
  doc->set_val("root text");
  doc->AddText("leading text");
  Node* edu = doc->AddElement("education");
  edu->AddElement("date")->set_val("1999");
  Node* stray = edu->AddElement("stray");
  stray->set_val("stray text");
  stray->AddElement("degree")->set_val("BSc");
  doc->AddElement("contact")->set_val("first");
  doc->AddText("middle text");
  doc->AddElement("contact")->set_val("second");
  doc->AddElement("education");
  return doc;
}

TEST(MappingDifferentialEdgeTest, EmptySchema) {
  const MajoritySchema empty;
  for (const Dtd& dtd : {Dtd{}, BuildDtd(SmallSchema())}) {
    const DocumentMapper mapper(empty, dtd);
    ExpectSameMapping(*MessyDocument("resume"), empty, dtd, mapper,
                      "empty schema");
  }
}

TEST(MappingDifferentialEdgeTest, RootRelabel) {
  const MajoritySchema schema = SmallSchema();
  const Dtd dtd = BuildDtd(schema);
  const DocumentMapper mapper(schema, dtd);
  const MappingReport report = ExpectSameMapping(
      *MessyDocument("cv"), schema, dtd, mapper, "root relabel");
  EXPECT_TRUE(report.conforms);
  // A text root is relabelled too.
  auto text_root = Node::MakeText("just text");
  ExpectSameMapping(*text_root, schema, dtd, mapper, "text root");
}

TEST(MappingDifferentialEdgeTest, DuplicateAndEmptySchemaLabels) {
  // Hand-built schemas the miner never emits: a label twice under one
  // parent (the first wins, as FindChild did), and an empty label, which
  // text children rank with.
  SchemaNode root = Leaf("resume");
  root.children.push_back(Leaf("contact"));
  root.children.push_back(Leaf(""));
  root.children.push_back(Leaf("education"));
  root.children.push_back(Leaf("contact"));
  const MajoritySchema schema(std::move(root));
  for (const bool mark_optional : {false, true}) {
    DtdBuildOptions options;
    options.mark_optional = mark_optional;
    const Dtd dtd = BuildDtd(schema, options);
    const DocumentMapper mapper(schema, dtd);
    auto doc = MessyDocument("resume");
    doc->AddElement("");
    doc->AddText("trailing text");
    ExpectSameMapping(*doc, schema, dtd, mapper, "odd labels");
  }
}

}  // namespace
}  // namespace webre
