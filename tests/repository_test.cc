#include <gtest/gtest.h>

#include "concepts/resume_domain.h"
#include "corpus/resume_generator.h"
#include "mapping/document_mapper.h"
#include "repository/repository.h"
#include "restructure/converter.h"
#include "restructure/recognizer.h"
#include "schema/dtd_builder.h"
#include "schema/frequent_paths.h"
#include "util/simd_scan.h"

namespace webre {
namespace {

std::unique_ptr<Node> SmallDoc(const std::string& date_val) {
  auto root = Node::MakeElement("resume");
  Node* education = root->AddElement("EDUCATION");
  Node* date = education->AddElement("DATE");
  date->set_val(date_val);
  date->AddElement("INSTITUTION");
  return root;
}

TEST(RepositoryTest, AddAndRetrieve) {
  // Add freezes: the flat form is what the repository stores.
  XmlRepository repo;
  auto id = repo.Add(SmallDoc("June 1996"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  EXPECT_EQ(repo.size(), 1u);
  const FlatDoc* flat = repo.flat_document(0);
  ASSERT_NE(flat, nullptr);
  EXPECT_EQ(flat->name_view(0), "resume");
  EXPECT_EQ(flat->element_count(), 4u);
  EXPECT_EQ(repo.flat_document(99), nullptr);
}

TEST(RepositoryTest, FlatDocPreservesStructureAndText) {
  auto tree = SmallDoc("June 1996");
  auto flat = FlatDoc::Freeze(*tree);
  // Pre-order: resume(0) -> EDUCATION(1) -> DATE(2), INSTITUTION(3).
  ASSERT_EQ(flat->element_count(), 4u);
  EXPECT_EQ(flat->name_view(0), "resume");
  EXPECT_EQ(flat->name_view(1), "EDUCATION");
  EXPECT_EQ(flat->name_view(2), "DATE");
  EXPECT_EQ(flat->name_view(3), "INSTITUTION");
  EXPECT_EQ(flat->parent(0), FlatDoc::kNoParent);
  EXPECT_EQ(flat->parent(1), 0u);
  EXPECT_EQ(flat->parent(2), 1u);
  EXPECT_EQ(flat->parent(3), 2u);
  EXPECT_EQ(flat->subtree_end(0), 4u);
  EXPECT_EQ(flat->subtree_end(1), 4u);
  EXPECT_EQ(flat->subtree_end(2), 4u);
  EXPECT_EQ(flat->subtree_end(3), 4u);
  EXPECT_EQ(flat->val(2), "June 1996");
  EXPECT_EQ(flat->val(0), "");
  EXPECT_NE(FindLowered(flat->val(2), "june"), std::string_view::npos);
  EXPECT_NE(FindLowered(flat->val(2), ""), std::string_view::npos);
  EXPECT_EQ(FindLowered(flat->val(2), "july"), std::string_view::npos);
  EXPECT_GT(flat->block_bytes(), 0u);
}

TEST(RepositoryTest, RejectsNonElementRoot) {
  XmlRepository repo;
  EXPECT_FALSE(repo.Add(Node::MakeText("just text")).ok());
  EXPECT_FALSE(repo.Add(nullptr).ok());
}

TEST(RepositoryTest, PathIndexFindsDocuments) {
  XmlRepository repo;
  repo.Add(SmallDoc("a")).value();
  repo.Add(SmallDoc("b")).value();
  auto other = Node::MakeElement("resume");
  other->AddElement("SKILLS");
  repo.Add(std::move(other)).value();

  auto with_date = repo.DocumentsWithPath({"resume", "EDUCATION", "DATE"});
  EXPECT_EQ(with_date, (std::vector<DocId>{0, 1}));
  auto with_skills = repo.DocumentsWithPath({"resume", "SKILLS"});
  EXPECT_EQ(with_skills, (std::vector<DocId>{2}));
  EXPECT_TRUE(repo.DocumentsWithPath({"resume", "NOPE"}).empty());
}

TEST(RepositoryTest, SimpleQueryUsesIndex) {
  XmlRepository repo;
  repo.Add(SmallDoc("June 1996")).value();
  repo.Add(SmallDoc("May 1998")).value();
  auto matches = repo.Query("/resume/EDUCATION/DATE");
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 2u);
  EXPECT_EQ((*matches)[0].doc, 0u);
  EXPECT_EQ((*matches)[0].val(), "June 1996");
  EXPECT_EQ(NameTable::Global().NameOf((*matches)[0].name()), "DATE");
  EXPECT_EQ((*matches)[1].doc, 1u);
}

TEST(RepositoryTest, PredicateQueryAcrossDocuments) {
  XmlRepository repo;
  repo.Add(SmallDoc("June 1996")).value();
  repo.Add(SmallDoc("May 1998")).value();
  auto matches = repo.Query("//DATE[val~\"1998\"]");
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].doc, 1u);
}

TEST(RepositoryTest, DocumentsWithPathMissReturnsSharedSentinel) {
  XmlRepository repo;
  repo.Add(SmallDoc("x")).value();
  // Misses return a reference to one shared empty vector — no per-call
  // allocation, and the identity is observable.
  const std::vector<DocId>& miss1 = repo.DocumentsWithPath({"resume", "NO"});
  const std::vector<DocId>& miss2 = repo.DocumentsWithPath({"NOPE"});
  EXPECT_TRUE(miss1.empty());
  EXPECT_EQ(&miss1, &miss2);
  // A label no document ever used takes the same path.
  const std::vector<DocId>& miss3 =
      repo.DocumentsWithPath({"never-interned-label"});
  EXPECT_EQ(&miss1, &miss3);
}

TEST(RepositoryTest, ShardCountDoesNotChangeResults) {
  for (size_t shards : {1u, 2u, 3u, 5u}) {
    RepositoryOptions options;
    options.num_shards = shards;
    XmlRepository repo(options);
    EXPECT_EQ(repo.num_shards(), shards);
    for (size_t i = 0; i < 7; ++i) {
      repo.Add(SmallDoc("date " + std::to_string(i))).value();
    }
    auto matches = repo.Query("/resume/EDUCATION/DATE");
    ASSERT_TRUE(matches.ok());
    ASSERT_EQ(matches->size(), 7u) << shards << " shards";
    for (size_t i = 0; i < 7; ++i) {
      EXPECT_EQ((*matches)[i].doc, i) << shards << " shards";
      EXPECT_EQ((*matches)[i].val(), "date " + std::to_string(i));
    }
    EXPECT_EQ(repo.Stats().documents, 7u);
    EXPECT_EQ(repo.Stats().elements, 28u);
  }
}

TEST(RepositoryTest, QueryStatsClassifyPlans) {
  RepositoryOptions options;
  options.num_shards = 2;
  XmlRepository repo(options);
  repo.Add(SmallDoc("June 1996")).value();
  repo.Add(SmallDoc("May 1998")).value();

  // No predicate: the summary's occurrence runs. A final-step
  // predicate: the value columns alone. Neither evaluates a document.
  repo.Query("/resume/EDUCATION/DATE").value();
  repo.Query("//DATE[val~\"1996\"]").value();
  obs::QueryStatsView stats = repo.query_stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.index_hits, 2u);
  EXPECT_EQ(stats.prefix_hits, 0u);
  EXPECT_EQ(stats.fallback_walks, 0u);
  EXPECT_EQ(stats.plan_summary, 1u);
  EXPECT_EQ(stats.plan_sweep, 1u);

  // An intermediate predicate behind a child-axis name prefix: seeded
  // from the DATE column, the suffix evaluated per seeded document.
  repo.Query("/resume/EDUCATION/DATE[val~\"19\"]/INSTITUTION").value();
  stats = repo.query_stats();
  EXPECT_EQ(stats.prefix_hits, 1u);
  EXPECT_EQ(stats.plan_seeded, 1u);
  EXPECT_EQ(stats.fallback_walks, 2u);  // both documents seeded

  // A predicate no value satisfies seeds no document: same plan, no
  // evaluation.
  repo.Query("/resume/EDUCATION[val~\"x\"]/DATE").value();
  stats = repo.query_stats();
  EXPECT_EQ(stats.prefix_hits, 2u);
  EXPECT_EQ(stats.plan_seeded, 2u);
  EXPECT_EQ(stats.fallback_walks, 2u);

  // Under a // prefix the executor is the same; the shape is a scan.
  repo.Query("//DATE[val~\"1998\"]/INSTITUTION").value();
  stats = repo.query_stats();
  EXPECT_EQ(stats.plan_scan, 1u);
  EXPECT_EQ(stats.fallback_walks, 3u);  // only the 1998 document
  EXPECT_EQ(stats.queries, 5u);
  EXPECT_EQ(stats.index_hits + stats.prefix_hits, stats.queries);
  EXPECT_EQ(stats.plan_summary + stats.plan_sweep + stats.plan_seeded +
                stats.plan_scan,
            stats.queries);
  EXPECT_EQ(stats.eval_us.count, 5u);
}

TEST(RepositoryTest, MalformedQueryReportsError) {
  XmlRepository repo;
  repo.Add(SmallDoc("x")).value();
  EXPECT_FALSE(repo.Query("not-a-query").ok());
}

TEST(RepositoryTest, StatsCountEverything) {
  XmlRepository repo;
  repo.Add(SmallDoc("a")).value();
  repo.Add(SmallDoc("b")).value();
  RepositoryStats stats = repo.Stats();
  EXPECT_EQ(stats.documents, 2u);
  EXPECT_EQ(stats.elements, 8u);       // 4 per doc
  EXPECT_EQ(stats.distinct_paths, 4u); // shared across docs
  EXPECT_GT(stats.flat_bytes, 0u);     // frozen blocks are accounted
}

TEST(RepositoryTest, DtdGateRejectsNonConforming) {
  Dtd dtd;
  dtd.set_root("resume");
  ElementDecl resume;
  resume.name = "resume";
  resume.content =
      ContentParticle::Sequence({ContentParticle::Element("EDUCATION")});
  dtd.AddElement(resume);
  ElementDecl education;
  education.name = "EDUCATION";
  education.pcdata_only = true;
  dtd.AddElement(education);

  XmlRepository repo;
  repo.SetDtd(dtd);
  // SmallDoc has DATE under EDUCATION: not (#PCDATA).
  auto rejected = repo.Add(SmallDoc("x"));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);

  auto ok_doc = Node::MakeElement("resume");
  ok_doc->AddElement("EDUCATION");
  EXPECT_TRUE(repo.Add(std::move(ok_doc)).ok());
  EXPECT_EQ(repo.size(), 1u);
}

TEST(RepositoryTest, EndToEndWithPipelineDocuments) {
  // Convert a corpus, derive the DTD, map documents, load the repository
  // with the DTD gate on, and query it — the paper's full integration
  // story.
  ConceptSet concepts = ResumeConcepts();
  ConstraintSet constraints = ResumeConstraints();
  SynonymRecognizer recognizer(&concepts);
  DocumentConverter converter(&concepts, &recognizer, &constraints);

  MiningOptions mining;
  mining.constraints = &constraints;
  FrequentPathMiner miner(mining);
  std::vector<std::unique_ptr<Node>> docs;
  for (size_t i = 0; i < 40; ++i) {
    docs.push_back(converter.Convert(GenerateResume(i).html));
    miner.AddDocument(*docs.back());
  }
  MajoritySchema schema = miner.Discover();
  DtdBuildOptions dtd_options;
  dtd_options.mark_optional = true;
  Dtd dtd = BuildDtd(schema, dtd_options);

  XmlRepository repo;
  repo.SetDtd(dtd);
  size_t admitted = 0;
  for (const auto& doc : docs) {
    ConformResult mapped = ConformToSchema(*doc, schema, dtd);
    if (repo.Add(std::move(mapped.document)).ok()) ++admitted;
  }
  EXPECT_EQ(admitted, 40u);

  auto dates = repo.Query("/resume/EDUCATION/DATE");
  ASSERT_TRUE(dates.ok());
  EXPECT_GT(dates->size(), 40u);  // multiple entries per resume

  auto languages = repo.Query("//LANGUAGE[val~\"java\"]");
  ASSERT_TRUE(languages.ok());
  EXPECT_GT(languages->size(), 5u);
}

TEST(RepositoryTest, DiscoverSchemaOverStoredDocuments) {
  ConceptSet concepts = ResumeConcepts();
  ConstraintSet constraints = ResumeConstraints();
  SynonymRecognizer recognizer(&concepts);
  DocumentConverter converter(&concepts, &recognizer, &constraints);
  XmlRepository repo;
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        repo.Add(converter.Convert(GenerateResume(i).html)).ok());
  }
  MiningOptions options;
  options.constraints = &constraints;
  MajoritySchema schema = repo.DiscoverSchema(options);
  EXPECT_EQ(schema.root().label, "resume");
  EXPECT_TRUE(schema.ContainsPath({"resume", "EDUCATION"}));
  // The repository's distinct-path count is its Data Guide size: at
  // least as large as any majority schema.
  EXPECT_GE(repo.Stats().distinct_paths, schema.NodeCount());
}

}  // namespace
}  // namespace webre
