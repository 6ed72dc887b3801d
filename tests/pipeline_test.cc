#include <gtest/gtest.h>

#include "concepts/resume_domain.h"
#include "core/pipeline.h"
#include "corpus/resume_generator.h"
#include "xml/dtd_validator.h"
#include "xml/writer.h"

namespace webre {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : concepts_(ResumeConcepts()),
        constraints_(ResumeConstraints()),
        recognizer_(&concepts_) {}

  std::vector<std::string> Pages(size_t n) {
    std::vector<std::string> pages;
    for (size_t i = 0; i < n; ++i) pages.push_back(GenerateResume(i).html);
    return pages;
  }

  ConceptSet concepts_;
  ConstraintSet constraints_;
  SynonymRecognizer recognizer_;
};

TEST_F(PipelineTest, EndToEndProducesSchemaAndDtd) {
  Pipeline pipeline(&concepts_, &recognizer_, &constraints_);
  PipelineResult result = pipeline.Run(Pages(60));
  EXPECT_EQ(result.documents.size(), 60u);
  EXPECT_EQ(result.convert_stats.size(), 60u);
  EXPECT_FALSE(result.schema.empty());
  EXPECT_EQ(result.schema.root().label, "resume");
  EXPECT_FALSE(result.dtd.elements().empty());
  EXPECT_EQ(result.dtd.root(), "resume");
}

TEST_F(PipelineTest, SchemaContainsCoreSections) {
  Pipeline pipeline(&concepts_, &recognizer_, &constraints_);
  PipelineResult result = pipeline.Run(Pages(80));
  // The mandatory sections are frequent across any reasonable corpus.
  EXPECT_TRUE(result.schema.ContainsPath({"resume", "EDUCATION"}));
  EXPECT_TRUE(result.schema.ContainsPath({"resume", "EXPERIENCE"}));
  EXPECT_TRUE(result.schema.ContainsPath({"resume", "SKILLS"}));
  EXPECT_TRUE(
      result.schema.ContainsPath({"resume", "SKILLS", "LANGUAGE"}));
}

TEST_F(PipelineTest, ConstraintsKeepTitleConceptsAtLevelOne) {
  Pipeline pipeline(&concepts_, &recognizer_, &constraints_);
  PipelineResult result = pipeline.Run(Pages(60));
  for (const LabelPath& path : result.schema.AllPaths()) {
    for (size_t level = 1; level < path.size(); ++level) {
      for (const std::string& title : ResumeTitleConceptNames()) {
        if (path[level] == title) {
          EXPECT_EQ(level, 1u) << JoinLabelPath(path);
        }
      }
    }
  }
}

TEST_F(PipelineTest, EmptyInput) {
  Pipeline pipeline(&concepts_, &recognizer_, &constraints_);
  PipelineResult result = pipeline.Run({});
  EXPECT_TRUE(result.documents.empty());
  EXPECT_TRUE(result.schema.empty());
  EXPECT_TRUE(result.dtd.elements().empty());
}

TEST_F(PipelineTest, MappingRaisesConformance) {
  PipelineOptions options;
  options.map_documents = true;
  options.dtd.mark_optional = true;
  options.dtd.optional_threshold = 0.9;
  Pipeline pipeline(&concepts_, &recognizer_, &constraints_, options);
  PipelineResult result = pipeline.Run(Pages(50));
  ASSERT_EQ(result.mapped_documents.size(), 50u);
  EXPECT_GE(result.conforming_after, result.conforming_before);
  EXPECT_GT(result.conforming_after, 40u);
}

TEST_F(PipelineTest, MappedDocumentsValidateIndividually) {
  PipelineOptions options;
  options.map_documents = true;
  options.dtd.mark_optional = true;
  Pipeline pipeline(&concepts_, &recognizer_, &constraints_, options);
  PipelineResult result = pipeline.Run(Pages(30));
  size_t valid = 0;
  for (const auto& doc : result.mapped_documents) {
    if (ConformsToDtd(*doc, result.dtd)) ++valid;
  }
  EXPECT_EQ(valid, result.conforming_after);
}

TEST_F(PipelineTest, MappedDocumentsEqualConformToSchema) {
  // The pipeline maps with a mapper compiled once per batch; each mapped
  // document must be exactly what ConformToSchema makes of it alone.
  const std::vector<std::string> pages = Pages(40);
  for (const bool mark_optional : {false, true}) {
    for (const size_t threads : {1u, 4u}) {
      PipelineOptions options;
      options.map_documents = true;
      options.dtd.mark_optional = mark_optional;
      options.parallel.num_threads = threads;
      Pipeline pipeline(&concepts_, &recognizer_, &constraints_, options);
      PipelineResult result = pipeline.Run(pages);
      ASSERT_EQ(result.mapped_documents.size(), pages.size());
      size_t conforming = 0;
      for (size_t i = 0; i < pages.size(); ++i) {
        ASSERT_NE(result.documents[i], nullptr) << i;
        ASSERT_NE(result.mapped_documents[i], nullptr) << i;
        const ConformResult alone =
            ConformToSchema(*result.documents[i], result.schema, result.dtd);
        EXPECT_EQ(WriteXml(*result.mapped_documents[i]),
                  WriteXml(*alone.document))
            << "doc " << i << " threads " << threads;
        if (alone.report.conforms) ++conforming;
      }
      EXPECT_EQ(result.conforming_after, conforming)
          << "threads " << threads << " optional " << mark_optional;
    }
  }
}

TEST_F(PipelineTest, ThresholdsShapeSchemaSize) {
  PipelineOptions strict;
  strict.mining.sup_threshold = 0.9;
  PipelineOptions lax;
  lax.mining.sup_threshold = 0.1;
  Pipeline strict_pipeline(&concepts_, &recognizer_, &constraints_, strict);
  Pipeline lax_pipeline(&concepts_, &recognizer_, &constraints_, lax);
  auto pages = Pages(60);
  const size_t strict_size =
      strict_pipeline.Run(pages).schema.NodeCount();
  const size_t lax_size = lax_pipeline.Run(pages).schema.NodeCount();
  EXPECT_LT(strict_size, lax_size);
}

TEST_F(PipelineTest, StatsAccumulate) {
  Pipeline pipeline(&concepts_, &recognizer_, &constraints_);
  PipelineResult result = pipeline.Run(Pages(20));
  EXPECT_GT(result.mining_stats.paths_offered, 100u);
  EXPECT_GT(result.mining_stats.trie_nodes, 10u);
  EXPECT_GT(result.mining_stats.frequent_paths, 5u);
  for (const ConvertStats& stats : result.convert_stats) {
    EXPECT_GT(stats.concept_nodes, 0u);
  }
}

}  // namespace
}  // namespace webre
