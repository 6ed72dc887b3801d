// Determinism of the parallel pipeline: for any thread count, every
// output of Pipeline::Run — converted XML, per-document stats, schema,
// DTD, conformance counters, mapped documents — must be byte-identical
// to the serial run. This is the acceptance bar that makes the fan-out
// a pure performance change.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "concepts/resume_domain.h"
#include "core/pipeline.h"
#include "corpus/resume_generator.h"
#include "schema/path_extractor.h"
#include "xml/writer.h"

namespace webre {
namespace {

struct RunOutputs {
  std::vector<std::string> documents;
  std::vector<ConvertStats> convert_stats;
  std::string schema;
  std::string dtd;
  MiningStats mining_stats;
  size_t conforming_before = 0;
  size_t conforming_after = 0;
  std::vector<std::string> mapped_documents;
};

RunOutputs Render(const PipelineResult& result) {
  RunOutputs out;
  for (const auto& doc : result.documents) {
    out.documents.push_back(WriteXml(*doc));
  }
  out.convert_stats = result.convert_stats;
  out.schema = result.schema.ToString();
  out.dtd = result.dtd.ToString(/*attlist=*/true);
  out.mining_stats = result.mining_stats;
  out.conforming_before = result.conforming_before;
  out.conforming_after = result.conforming_after;
  for (const auto& doc : result.mapped_documents) {
    out.mapped_documents.push_back(WriteXml(*doc));
  }
  return out;
}

void ExpectIdentical(const RunOutputs& serial, const RunOutputs& parallel,
                     size_t threads) {
  ASSERT_EQ(serial.documents.size(), parallel.documents.size());
  for (size_t i = 0; i < serial.documents.size(); ++i) {
    EXPECT_EQ(serial.documents[i], parallel.documents[i])
        << "doc " << i << " at " << threads << " threads";
  }
  ASSERT_EQ(serial.convert_stats.size(), parallel.convert_stats.size());
  for (size_t i = 0; i < serial.convert_stats.size(); ++i) {
    const ConvertStats& a = serial.convert_stats[i];
    const ConvertStats& b = parallel.convert_stats[i];
    EXPECT_EQ(a.tokens_created, b.tokens_created) << i;
    EXPECT_EQ(a.instance.tokens_total, b.instance.tokens_total) << i;
    EXPECT_EQ(a.instance.tokens_identified, b.instance.tokens_identified)
        << i;
    EXPECT_EQ(a.instance.elements_created, b.instance.elements_created) << i;
    EXPECT_EQ(a.groups_created, b.groups_created) << i;
    EXPECT_EQ(a.consolidation.nodes_deleted, b.consolidation.nodes_deleted)
        << i;
    EXPECT_EQ(a.consolidation.nodes_pushed_up,
              b.consolidation.nodes_pushed_up)
        << i;
    EXPECT_EQ(a.consolidation.nodes_replaced, b.consolidation.nodes_replaced)
        << i;
    EXPECT_EQ(a.concept_nodes, b.concept_nodes) << i;
    // Memory accounting is per-document (one doc converts on one
    // thread), so node-allocation counts and arena bytes must not
    // depend on the thread count either.
    EXPECT_EQ(a.mem_node_allocs, b.mem_node_allocs) << i;
    EXPECT_EQ(a.mem_arena_bytes, b.mem_arena_bytes) << i;
  }
  EXPECT_EQ(serial.schema, parallel.schema) << threads << " threads";
  EXPECT_EQ(serial.dtd, parallel.dtd) << threads << " threads";
  EXPECT_EQ(serial.mining_stats.paths_offered,
            parallel.mining_stats.paths_offered);
  EXPECT_EQ(serial.mining_stats.paths_pruned_by_constraints,
            parallel.mining_stats.paths_pruned_by_constraints);
  EXPECT_EQ(serial.mining_stats.trie_nodes, parallel.mining_stats.trie_nodes);
  EXPECT_EQ(serial.mining_stats.frequent_paths,
            parallel.mining_stats.frequent_paths);
  EXPECT_EQ(serial.conforming_before, parallel.conforming_before);
  EXPECT_EQ(serial.conforming_after, parallel.conforming_after);
  ASSERT_EQ(serial.mapped_documents.size(), parallel.mapped_documents.size());
  for (size_t i = 0; i < serial.mapped_documents.size(); ++i) {
    EXPECT_EQ(serial.mapped_documents[i], parallel.mapped_documents[i])
        << "mapped doc " << i << " at " << threads << " threads";
  }
}

class ParallelPipelineTest : public ::testing::Test {
 protected:
  ParallelPipelineTest()
      : concepts_(ResumeConcepts()),
        constraints_(ResumeConstraints()),
        recognizer_(&concepts_) {}

  std::vector<std::string> Pages(size_t n) {
    std::vector<std::string> pages;
    for (size_t i = 0; i < n; ++i) pages.push_back(GenerateResume(i).html);
    return pages;
  }

  PipelineResult RunWith(const std::vector<std::string>& pages,
                         size_t threads, bool map_documents) {
    PipelineOptions options;
    options.map_documents = map_documents;
    options.dtd.mark_optional = map_documents;
    options.parallel.num_threads = threads;
    options.parallel.chunk_size = 4;  // small chunks: force interleaving
    Pipeline pipeline(&concepts_, &recognizer_, &constraints_, options);
    return pipeline.Run(pages);
  }

  ConceptSet concepts_;
  ConstraintSet constraints_;
  SynonymRecognizer recognizer_;
};

TEST_F(ParallelPipelineTest, ParallelRunsAreByteIdenticalToSerial) {
  const std::vector<std::string> pages = Pages(60);
  const RunOutputs serial =
      Render(RunWith(pages, /*threads=*/1, /*map_documents=*/false));
  for (size_t threads : {2u, 4u, 8u}) {
    const RunOutputs parallel = Render(RunWith(pages, threads, false));
    ExpectIdentical(serial, parallel, threads);
  }
}

TEST_F(ParallelPipelineTest, MappingStageIsDeterministicToo) {
  const std::vector<std::string> pages = Pages(40);
  const RunOutputs serial =
      Render(RunWith(pages, /*threads=*/1, /*map_documents=*/true));
  for (size_t threads : {2u, 4u, 8u}) {
    const RunOutputs parallel = Render(RunWith(pages, threads, true));
    ExpectIdentical(serial, parallel, threads);
  }
}

TEST_F(ParallelPipelineTest, HardwareDefaultThreadCount) {
  // num_threads = 0 resolves to the hardware thread count and still
  // matches the serial run.
  const std::vector<std::string> pages = Pages(30);
  const RunOutputs serial = Render(RunWith(pages, 1, false));
  const RunOutputs parallel = Render(RunWith(pages, 0, false));
  ExpectIdentical(serial, parallel, 0);
}

TEST_F(ParallelPipelineTest, MoreThreadsThanDocuments) {
  const std::vector<std::string> pages = Pages(3);
  const RunOutputs serial = Render(RunWith(pages, 1, true));
  const RunOutputs parallel = Render(RunWith(pages, 8, true));
  ExpectIdentical(serial, parallel, 8);
}

// Every field of every schema node, compared exactly: the chunk miners'
// merge must reproduce the serial fold bit for bit.
void ExpectSameSchema(const SchemaNode& a, const SchemaNode& b,
                      const std::string& where) {
  EXPECT_EQ(a.label, b.label) << where;
  EXPECT_EQ(a.doc_count, b.doc_count) << where;
  EXPECT_EQ(a.support, b.support) << where;
  EXPECT_EQ(a.support_ratio, b.support_ratio) << where;
  EXPECT_EQ(a.avg_position, b.avg_position) << where;
  EXPECT_EQ(a.rep_fraction, b.rep_fraction) << where;
  ASSERT_EQ(a.children.size(), b.children.size()) << where;
  for (size_t i = 0; i < a.children.size(); ++i) {
    ExpectSameSchema(a.children[i], b.children[i],
                     where + "/" + a.children[i].label);
  }
}

class ChunkMinerTest : public ParallelPipelineTest {
 protected:
  // Healthy pages with three pages that trip the depth guard.
  std::vector<std::string> MixedPages() {
    std::vector<std::string> pages = Pages(45);
    std::string deep;
    for (int i = 0; i < 200; ++i) deep += "<div>";
    for (size_t at : {3u, 17u, 40u}) pages.insert(pages.begin() + at, deep);
    return pages;
  }

  PipelineResult RunChunked(const std::vector<std::string>& pages,
                            size_t threads, size_t chunk, bool keep_going) {
    PipelineOptions options;
    options.limits.max_tree_depth = 64;
    options.keep_going = keep_going;
    options.parallel.num_threads = threads;
    options.parallel.chunk_size = chunk;
    Pipeline pipeline(&concepts_, &recognizer_, &constraints_, options);
    return pipeline.Run(pages);
  }
};

TEST_F(ChunkMinerTest, MergedChunkMinersMatchTheSerialFold) {
  const std::vector<std::string> pages = MixedPages();
  const PipelineResult serial = RunChunked(pages, 1, 16, true);
  ASSERT_EQ(serial.failed_documents, 3u);
  ASSERT_FALSE(serial.schema.empty());
  // Failed documents never fold: the miner saw exactly the surviving
  // documents' paths.
  size_t offered = 0;
  for (const auto& doc : serial.documents) {
    if (doc != nullptr) offered += ExtractPaths(*doc).size();
  }
  EXPECT_EQ(serial.mining_stats.paths_offered, offered);
  EXPECT_GT(serial.mining_stats.paths_pruned_by_constraints, 0u);

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    for (size_t chunk : {size_t{1}, size_t{4}, size_t{16}, pages.size()}) {
      const PipelineResult run = RunChunked(pages, threads, chunk, true);
      const std::string where = std::to_string(threads) + " threads, chunk " +
                                std::to_string(chunk) + ": ";
      EXPECT_EQ(run.failed_documents, 3u) << where;
      const MiningStats& a = serial.mining_stats;
      const MiningStats& b = run.mining_stats;
      EXPECT_EQ(a.paths_offered, b.paths_offered) << where;
      EXPECT_EQ(a.paths_pruned_by_constraints, b.paths_pruned_by_constraints)
          << where;
      EXPECT_EQ(a.trie_nodes, b.trie_nodes) << where;
      EXPECT_EQ(a.frequent_paths, b.frequent_paths) << where;
      ExpectSameSchema(serial.schema.root(), run.schema.root(), where);
      EXPECT_EQ(serial.dtd.ToString(true), run.dtd.ToString(true)) << where;
    }
  }
}

TEST_F(ChunkMinerTest, KeepGoingOffAbortsBeforeDiscoveryAtEveryChunking) {
  const std::vector<std::string> pages = MixedPages();
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    for (size_t chunk : {size_t{1}, size_t{4}, size_t{16}, pages.size()}) {
      const PipelineResult run = RunChunked(pages, threads, chunk, false);
      const std::string where = std::to_string(threads) + " threads, chunk " +
                                std::to_string(chunk);
      EXPECT_TRUE(run.aborted) << where;
      EXPECT_EQ(run.failed_documents, 3u) << where;
      EXPECT_TRUE(run.schema.empty()) << where;
      EXPECT_TRUE(run.dtd.elements().empty()) << where;
      EXPECT_EQ(run.mining_stats.paths_offered, 0u) << where;
      EXPECT_EQ(run.mining_stats.trie_nodes, 0u) << where;
    }
  }
}

TEST_F(ParallelPipelineTest, EmptyInputWithThreads) {
  PipelineResult result = RunWith({}, 8, true);
  EXPECT_TRUE(result.documents.empty());
  EXPECT_TRUE(result.schema.empty());
  EXPECT_TRUE(result.mapped_documents.empty());
}

}  // namespace
}  // namespace webre
