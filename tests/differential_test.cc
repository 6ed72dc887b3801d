// Differential tests: two independent ways of computing the same thing
// must agree. These guard the optimizations (index pruning, incremental
// statistics) against the straightforward implementations.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "concepts/resume_domain.h"
#include "corpus/resume_generator.h"
#include "html/parser.h"
#include "html/tidy.h"
#include "naive_query_oracle.h"
#include "repository/repository.h"
#include "restructure/converter.h"
#include "restructure/recognizer.h"
#include "schema/dtd_builder.h"
#include "schema/frequent_paths.h"
#include "schema/path_extractor.h"
#include "util/rng.h"
#include "util/simd_scan.h"
#include "util/strings.h"

namespace webre {
namespace {

struct Fixture {
  Fixture()
      : concepts(ResumeConcepts()),
        constraints(ResumeConstraints()),
        recognizer(&concepts),
        converter(&concepts, &recognizer, &constraints) {}

  ConceptSet concepts;
  ConstraintSet constraints;
  SynonymRecognizer recognizer;
  DocumentConverter converter;
};

Fixture& Shared() {
  static Fixture& fixture = *new Fixture();
  return fixture;
}

class QueryDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(QueryDifferential, IndexPrunedQueryEqualsBruteForce) {
  Fixture& f = Shared();
  XmlRepository repo;
  std::vector<std::unique_ptr<Node>> kept;
  std::vector<std::map<const Node*, uint32_t>> order;
  for (size_t i = 0; i < 25; ++i) {
    auto doc = f.converter.Convert(GenerateResume(i).html);
    kept.push_back(doc->Clone());
    order.push_back(oracle::ElementOrderIndex(*kept.back()));
    ASSERT_TRUE(repo.Add(std::move(doc)).ok());
  }
  auto parsed = PathQuery::Parse(GetParam());
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  // Brute force: the naive evaluator over every retained clone, in
  // document order.
  std::vector<std::pair<size_t, uint32_t>> brute;
  for (size_t id = 0; id < kept.size(); ++id) {
    std::set<uint32_t> positions;
    for (const Node* node : oracle::NaiveEvaluate(*parsed, *kept[id])) {
      positions.insert(order[id].at(node));
    }
    for (uint32_t pos : positions) brute.emplace_back(id, pos);
  }
  // Repository path: flat evaluation over frozen documents, possibly
  // pruned via the label-path index.
  std::vector<std::pair<size_t, uint32_t>> indexed;
  for (const QueryMatch& m : repo.Query(*parsed)) {
    indexed.emplace_back(m.doc, m.pos);
  }
  EXPECT_EQ(brute, indexed) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Queries, QueryDifferential,
    ::testing::Values("/resume/EDUCATION/DATE",
                      "/resume/EDUCATION/DATE/INSTITUTION",
                      "/resume/SKILLS/LANGUAGE", "//DATE", "//LOCATION",
                      "/resume/*/LANGUAGE", "//DATE[val~\"199\"]",
                      "/resume/EXPERIENCE//DATE",
                      "/resume/CONTACT/LOCATION/PHONE",
                      "/resume/NOSUCH/THING"));

TEST(TidyDifferential, TidyIsIdempotent) {
  for (size_t i = 0; i < 15; ++i) {
    auto once = ParseHtml(GenerateResume(i).html);
    TidyHtmlTree(once.get());
    auto twice = once->Clone();
    TidyHtmlTree(twice.get());
    EXPECT_TRUE(*once == *twice) << "doc " << i;
  }
}

TEST(MinerDifferential, IncrementalEqualsBatchExtraction) {
  // AddDocument (tree walk inside the miner) must agree with
  // AddDocumentPaths over a pre-extracted DocumentPaths.
  Fixture& f = Shared();
  FrequentPathMiner a;
  FrequentPathMiner b;
  for (size_t i = 0; i < 15; ++i) {
    auto doc = f.converter.Convert(GenerateResume(i).html);
    a.AddDocument(*doc);
    b.AddDocumentPaths(ExtractPaths(*doc));
  }
  a.mutable_options().sup_threshold = 0.3;
  b.mutable_options().sup_threshold = 0.3;
  MajoritySchema schema_a = a.Discover();
  MajoritySchema schema_b = b.Discover();
  EXPECT_EQ(schema_a.ToString(), schema_b.ToString());
}

TEST(MinerDifferential, DocumentOrderIrrelevant) {
  Fixture& f = Shared();
  std::vector<std::unique_ptr<Node>> docs;
  for (size_t i = 0; i < 15; ++i) {
    docs.push_back(f.converter.Convert(GenerateResume(i).html));
  }
  FrequentPathMiner forward;
  FrequentPathMiner backward;
  for (size_t i = 0; i < docs.size(); ++i) {
    forward.AddDocument(*docs[i]);
    backward.AddDocument(*docs[docs.size() - 1 - i]);
  }
  EXPECT_EQ(forward.Discover().ToString(),
            backward.Discover().ToString());
}

TEST(ConvertStatsDifferential, ConceptNodesMatchesTreeCount) {
  Fixture& f = Shared();
  for (size_t i = 0; i < 15; ++i) {
    ConvertStats stats;
    auto doc = f.converter.Convert(GenerateResume(i).html, &stats);
    size_t elements = 0;
    doc->PreOrder([&](const Node& n) {
      if (n.is_element()) ++elements;
    });
    EXPECT_EQ(stats.concept_nodes, elements - 1) << "doc " << i;
  }
}

TEST(RepositoryDifferential, PathIndexAgreesWithExtraction) {
  Fixture& f = Shared();
  XmlRepository repo;
  std::vector<DocumentPaths> extracted;
  for (size_t i = 0; i < 12; ++i) {
    auto doc = f.converter.Convert(GenerateResume(i).html);
    extracted.push_back(ExtractPaths(*doc));
    ASSERT_TRUE(repo.Add(std::move(doc)).ok());
  }
  // Every extracted path of doc i is answered by the index with i in it.
  for (size_t i = 0; i < extracted.size(); ++i) {
    for (size_t k = 0; k < extracted[i].size(); ++k) {
      const LabelPath path = LabelPathAt(extracted[i], k);
      std::vector<DocId> docs = repo.DocumentsWithPath(path);
      EXPECT_TRUE(std::find(docs.begin(), docs.end(), i) != docs.end())
          << JoinLabelPath(path);
    }
  }
}

// ---------------------------------------------------------------------
// Randomized serving-layer differential: the sharded, summary-indexed
// repository must agree with naive full-tree evaluation (the seed
// algorithm, replicated below with string matching and linear-scan
// dedup) over arbitrary corpora and query shapes.

std::unique_ptr<Node> RandomTree(Rng& rng) {
  static const char* const kLabels[] = {"a", "b", "c", "d", "e"};
  static const char* const kVals[] = {"", "x1996", "hello world", "Java",
                                      "foo"};
  auto root = Node::MakeElement("r");
  std::vector<std::pair<Node*, size_t>> open{{root.get(), 0}};
  while (!open.empty()) {
    auto [node, depth] = open.back();
    open.pop_back();
    if (depth >= 4) continue;
    const size_t children = rng.NextBelow(4);  // 0-3
    for (size_t c = 0; c < children; ++c) {
      Node* child = node->AddElement(kLabels[rng.NextBelow(5)]);
      const char* val = kVals[rng.NextBelow(5)];
      if (*val != '\0') child->set_val(val);
      open.emplace_back(child, depth + 1);
    }
  }
  return root;
}

PathQuery RandomQuery(Rng& rng) {
  static const char* const kNames[] = {"a", "b", "c", "d", "e",
                                       "*", "r", "zz"};
  static const char* const kNeedles[] = {"19", "java", "o", "x"};
  std::string text;
  const size_t steps = 1 + rng.NextBelow(4);
  for (size_t s = 0; s < steps; ++s) {
    text += rng.NextBool(0.35) ? "//" : "/";
    if (s == 0 && rng.NextBool(0.4)) {
      text += "r";  // anchored queries actually match something
    } else {
      text += kNames[rng.NextBelow(8)];
    }
    if (rng.NextBool(0.25)) {
      text += std::string("[val~\"") + kNeedles[rng.NextBelow(4)] + "\"]";
    }
  }
  return PathQuery::Parse(text).value();
}

TEST(RepositoryDifferential, RandomQueriesAgreeWithNaiveEvaluation) {
  // Two independent evaluators over identical corpora: the frozen
  // FlatDoc repository and the naive seed algorithm over retained
  // clones. Both must produce the same (doc, element pre-order
  // position) sequences, at 1, 2 and 3 shards.
  Rng rng(20260806);
  for (size_t round = 0; round < 3; ++round) {
    RepositoryOptions options;
    options.num_shards = 1 + round;  // 1, 2, 3
    XmlRepository repo(options);
    std::vector<std::unique_ptr<Node>> kept;
    std::vector<std::map<const Node*, uint32_t>> order;
    for (size_t i = 0; i < 30; ++i) {
      auto doc = RandomTree(rng);
      kept.push_back(doc->Clone());
      order.push_back(oracle::ElementOrderIndex(*kept.back()));
      ASSERT_TRUE(repo.Add(std::move(doc)).ok());
    }
    for (size_t q = 0; q < 40; ++q) {
      const PathQuery query = RandomQuery(rng);
      // Naive reference, canonicalized to (doc, pre-order position).
      std::vector<std::pair<size_t, uint32_t>> expected;
      for (size_t id = 0; id < kept.size(); ++id) {
        std::set<uint32_t> positions;
        for (const Node* node : oracle::NaiveEvaluate(query, *kept[id])) {
          positions.insert(order[id].at(node));
        }
        for (uint32_t pos : positions) expected.emplace_back(id, pos);
      }
      // The repository must return exactly this sequence: the same
      // match set, deduplicated, in (doc, document order) order.
      std::vector<std::pair<size_t, uint32_t>> got;
      for (const QueryMatch& m : repo.Query(query)) {
        got.emplace_back(m.doc, m.pos);
      }
      EXPECT_EQ(expected, got)
          << "round " << round << ": " << query.ToString();
    }
  }
}

TEST(RepositoryDifferential, ShardCountInvariantResultsAndCounters) {
  static const char* const kQueries[] = {
      "/r/a/b", "//c", "//a[val~\"java\"]", "/r//d", "//*[val~\"19\"]",
      "/r/a[val~\"o\"]/b", "//e//a", "/r/*/c",
  };
  std::vector<std::vector<std::vector<std::pair<size_t, uint32_t>>>> results;
  std::vector<obs::QueryStatsView> stats;
  for (size_t shards : {1u, 2u, 4u, 7u}) {
    RepositoryOptions options;
    options.num_shards = shards;
    XmlRepository repo(options);
    Rng rng(4242);  // same corpus for every shard count
    for (size_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(repo.Add(RandomTree(rng)).ok());
    }
    std::vector<std::vector<std::pair<size_t, uint32_t>>> per_query;
    for (const char* text : kQueries) {
      std::vector<std::pair<size_t, uint32_t>> canonical;
      const auto matches = repo.Query(text);
      ASSERT_TRUE(matches.ok()) << text;
      for (const QueryMatch& m : *matches) {
        canonical.emplace_back(m.doc, m.pos);
      }
      per_query.push_back(std::move(canonical));
    }
    results.push_back(std::move(per_query));
    stats.push_back(repo.query_stats());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]) << "shard variant " << i;
    // Every query.* counter is a function of corpus and queries alone.
    EXPECT_EQ(stats[0].queries, stats[i].queries);
    EXPECT_EQ(stats[0].index_hits, stats[i].index_hits);
    EXPECT_EQ(stats[0].prefix_hits, stats[i].prefix_hits);
    EXPECT_EQ(stats[0].fallback_walks, stats[i].fallback_walks);
    EXPECT_EQ(stats[0].matches, stats[i].matches);
    EXPECT_EQ(stats[0].predicate_bytes_scanned,
              stats[i].predicate_bytes_scanned);
    EXPECT_EQ(stats[0].plan_summary, stats[i].plan_summary);
    EXPECT_EQ(stats[0].plan_sweep, stats[i].plan_sweep);
    EXPECT_EQ(stats[0].plan_seeded, stats[i].plan_seeded);
    EXPECT_EQ(stats[0].plan_scan, stats[i].plan_scan);
    EXPECT_EQ(stats[0].eval_us.count, stats[i].eval_us.count);
  }
  // Predicate work is charged by candidate length, not by scan progress,
  // so the byte figure is exact; and every query lands in exactly one
  // plan bucket.
  EXPECT_GT(stats[0].predicate_bytes_scanned, 0u);
  EXPECT_EQ(stats[0].plan_summary + stats[0].plan_sweep +
                stats[0].plan_seeded + stats[0].plan_scan,
            stats[0].queries);
}

TEST(RepositoryDifferential, SimdLevelInvariantResultsAndCounters) {
  // The same corpus and queries must produce byte-identical match
  // sequences and counters no matter which scanner kernel is dispatched.
  static const char* const kQueries[] = {
      "//a[val~\"java\"]", "//*[val~\"19\"]", "/r/a[val~\"o\"]/b",
      "//b[val~\"hello world\"]", "//c[val~\"x\"]", "/r/a/b",
  };
  const SimdLevel saved = ActiveSimdLevel();
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() >= SimdLevel::kSse2) {
    levels.push_back(SimdLevel::kSse2);
  }
  if (DetectedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  std::vector<std::vector<std::pair<size_t, uint32_t>>> results;
  std::vector<obs::QueryStatsView> stats;
  for (SimdLevel level : levels) {
    ASSERT_EQ(SetSimdLevelForTesting(level), level);
    XmlRepository repo;
    Rng rng(4242);  // same corpus as the shard-invariance view
    for (size_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(repo.Add(RandomTree(rng)).ok());
    }
    std::vector<std::pair<size_t, uint32_t>> canonical;
    for (const char* text : kQueries) {
      const auto matches = repo.Query(text);
      ASSERT_TRUE(matches.ok()) << text;
      for (const QueryMatch& m : *matches) {
        canonical.emplace_back(m.doc, m.pos);
      }
    }
    results.push_back(std::move(canonical));
    stats.push_back(repo.query_stats());
  }
  SetSimdLevelForTesting(saved);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i])
        << "level " << SimdLevelName(levels[i]);
    EXPECT_EQ(stats[0].matches, stats[i].matches);
    EXPECT_EQ(stats[0].predicate_bytes_scanned,
              stats[i].predicate_bytes_scanned);
    EXPECT_EQ(stats[0].plan_summary, stats[i].plan_summary);
    EXPECT_EQ(stats[0].plan_sweep, stats[i].plan_sweep);
    EXPECT_EQ(stats[0].plan_seeded, stats[i].plan_seeded);
    EXPECT_EQ(stats[0].plan_scan, stats[i].plan_scan);
  }
}

TEST(RepositoryDifferential, ShardedDiscoverMatchesFreshMiner) {
  // DiscoverSchema mines the stored documents with the caller's
  // options; the schema and its DTD must equal a fresh miner's over the
  // same documents, for every shard count, with and without
  // constraints, and at every rep_threshold (which acts at insertion, so
  // a miner fed before the threshold is known counts at the wrong one).
  Fixture& f = Shared();
  std::vector<std::string> pages;
  for (size_t i = 0; i < 20; ++i) pages.push_back(GenerateResume(i).html);

  std::vector<std::unique_ptr<XmlRepository>> repos;
  for (size_t shards : {1u, 3u, 8u}) {
    RepositoryOptions options;
    options.num_shards = shards;
    repos.push_back(std::make_unique<XmlRepository>(options));
    for (const std::string& page : pages) {
      ASSERT_TRUE(repos.back()->Add(f.converter.Convert(page)).ok());
    }
  }

  for (const size_t rep_threshold : {1u, 2u, 3u, 4u, 5u}) {
    for (const bool constrained : {false, true}) {
      MiningOptions mining;
      mining.sup_threshold = 0.3;
      mining.rep_threshold = rep_threshold;
      if (constrained) mining.constraints = &f.constraints;

      FrequentPathMiner fresh(mining);
      for (const std::string& page : pages) {
        auto doc = f.converter.Convert(page);
        fresh.AddDocument(*doc);
      }
      const MajoritySchema expected = fresh.Discover();
      const std::string expected_dtd = BuildDtd(expected).ToString();

      for (const std::unique_ptr<XmlRepository>& repo : repos) {
        const MajoritySchema schema = repo->DiscoverSchema(mining);
        EXPECT_EQ(schema.ToString(), expected.ToString())
            << repo->num_shards() << " shards, constrained=" << constrained
            << ", rep_threshold=" << rep_threshold;
        EXPECT_EQ(BuildDtd(schema).ToString(), expected_dtd)
            << repo->num_shards() << " shards, constrained=" << constrained
            << ", rep_threshold=" << rep_threshold;
      }
    }
  }
}

}  // namespace
}  // namespace webre
