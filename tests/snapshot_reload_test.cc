// Differential tests for the durable repository: a snapshot and/or WAL
// reload must be observationally identical to a fresh in-memory build
// over the same documents — query results (and the deterministic
// query.* counters) byte-for-byte, across shard counts and re-sharded
// reopens (DESIGN.md §14) — and the discovered schema and DTD equal to
// a fresh miner's over the same documents.

#include <memory>
#include <string>
#include <vector>

#include "concepts/resume_domain.h"
#include "corpus/resume_generator.h"
#include "gtest/gtest.h"
#include "repository/repository.h"
#include "restructure/converter.h"
#include "restructure/recognizer.h"
#include "schema/dtd_builder.h"
#include "schema/frequent_paths.h"
#include "storage/durable_repository.h"
#include "util/rng.h"
#include "xml/node.h"

namespace webre {
namespace storage {
namespace {

constexpr size_t kDocs = 40;

const char* const kQueries[] = {
    "/resume/EDUCATION/DATE",
    "//DATE",
    "//LANGUAGE[val~\"java\"]",
    "//LOCATION",
    "/resume/*/PHONE",
    "//*[val~\"199\"]",
    "/resume/EDUCATION/DATE[val~\"199\"]/DEGREE",
    "//DATE[val~\"9\"]/DEGREE[val~\"m\"]",
    "/resume/CONTACT/*[val~\"city-1\"]",
};

std::unique_ptr<Node> MakeDoc(size_t index) {
  Rng rng(0xABCDEFu + index);
  std::unique_ptr<Node> root = Node::MakeElement("resume");
  Node* contact = root->AddElement("CONTACT");
  contact->AddElement("LOCATION")->set_val(
      "city-" + std::to_string(rng.NextBelow(20)));
  if (rng.NextBool(0.6)) {
    contact->AddElement("PHONE")->set_val(
        "555-" + std::to_string(rng.NextBelow(9999)));
  }
  Node* education = root->AddElement("EDUCATION");
  const size_t degrees = 1 + rng.NextBelow(3);
  for (size_t d = 0; d < degrees; ++d) {
    Node* date = education->AddElement("DATE");
    date->set_val(std::to_string(1990 + rng.NextBelow(12)));
    date->AddElement("DEGREE")->set_val(rng.NextBool(0.5) ? "BS" : "MS");
  }
  if (rng.NextBool(0.8)) {
    Node* skills = root->AddElement("SKILLS");
    skills->AddElement("LANGUAGE")->set_val(rng.NextBool(0.5) ? "Java"
                                                              : "Prolog");
  }
  return root;
}

// (doc, pos) pairs — the comparable part of a match (FlatDoc pointers
// differ between a live and a reloaded repository by construction).
std::vector<std::pair<DocId, uint32_t>> Run(const XmlRepository& repo,
                                            const char* query) {
  auto matches = repo.Query(query);
  EXPECT_TRUE(matches.ok()) << matches.status();
  std::vector<std::pair<DocId, uint32_t>> out;
  for (const QueryMatch& m : *matches) out.emplace_back(m.doc, m.pos);
  return out;
}

// Runs every query on both repositories and expects identical results
// and identical deterministic query counters — predicate bytes included,
// so the reloaded summary's value columns (rebuilt, never persisted)
// hold the same values as the live ones.
void ExpectEquivalent(const XmlRepository& fresh,
                      const XmlRepository& reloaded) {
  ASSERT_EQ(reloaded.size(), fresh.size());
  for (const char* query : kQueries) {
    EXPECT_EQ(Run(reloaded, query), Run(fresh, query)) << query;
  }
  const obs::QueryStatsView a = fresh.query_stats();
  const obs::QueryStatsView b = reloaded.query_stats();
  EXPECT_EQ(b.queries, a.queries);
  EXPECT_EQ(b.index_hits, a.index_hits);
  EXPECT_EQ(b.prefix_hits, a.prefix_hits);
  EXPECT_EQ(b.fallback_walks, a.fallback_walks);
  EXPECT_EQ(b.matches, a.matches);
  EXPECT_EQ(b.predicate_bytes_scanned, a.predicate_bytes_scanned);
  EXPECT_EQ(b.plan_summary, a.plan_summary);
  EXPECT_EQ(b.plan_sweep, a.plan_sweep);
  EXPECT_EQ(b.plan_seeded, a.plan_seeded);
  EXPECT_EQ(b.plan_scan, a.plan_scan);
  // Column by column. WAL replay may create paths in another order, so
  // each live path is looked up in the reloaded summary by its labels.
  fresh.WithSummary([&](const PathIndex& live) {
    reloaded.WithSummary([&](const PathIndex& restored) {
      ASSERT_EQ(restored.path_count(), live.path_count());
      for (uint32_t id = 0; id < live.path_count(); ++id) {
        std::vector<NameId> labels;
        for (uint32_t p = id; p != PathIndex::kNoPath;
             p = live.entry(p).parent) {
          labels.insert(labels.begin(), live.entry(p).name);
        }
        const uint32_t same = restored.FindPath(labels.data(), labels.size());
        ASSERT_NE(same, PathIndex::kNoPath);
        EXPECT_EQ(restored.entry(same).column, live.entry(id).column);
        EXPECT_EQ(restored.entry(same).column_off, live.entry(id).column_off);
      }
    });
  });
}

// A fresh, purely in-memory flat repository over the corpus — the
// ground truth every reload is held to.
std::unique_ptr<XmlRepository> FreshBuild(size_t num_shards) {
  RepositoryOptions options;
  options.num_shards = num_shards;
  auto repo = std::make_unique<XmlRepository>(options);
  for (size_t i = 0; i < kDocs; ++i) {
    EXPECT_TRUE(repo->Add(MakeDoc(i)).ok());
  }
  return repo;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  // Tests may be re-run in the same TempDir; start from nothing.
  (void)::system(("rm -rf '" + dir + "'").c_str());
  return dir;
}

DurableOptions Opts(size_t num_shards) {
  DurableOptions options;
  options.repository.num_shards = num_shards;
  return options;
}

TEST(SnapshotReload, CheckpointAcrossShardCounts) {
  const std::string dir = FreshDir("reload_shards");
  {
    auto durable = DurableRepository::Open(dir, Opts(3));
    ASSERT_TRUE(durable.ok()) << durable.status();
    for (size_t i = 0; i < kDocs; ++i) {
      ASSERT_TRUE((*durable)->Add(MakeDoc(i)).ok());
    }
    ASSERT_TRUE((*durable)->Checkpoint().ok());
  }

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    auto durable = DurableRepository::Open(dir, Opts(shards));
    ASSERT_TRUE(durable.ok()) << durable.status();
    // All documents come from the snapshot: zero-copy views, no replay.
    EXPECT_EQ((*durable)->stats().mmap_hits, kDocs);
    EXPECT_EQ((*durable)->stats().wal_replayed, 0u);
    // A fresh baseline per iteration — query counters accumulate.
    ExpectEquivalent(*FreshBuild(2), (*durable)->repo());
  }
}

TEST(SnapshotReload, WalOnlyReplay) {
  const std::string dir = FreshDir("reload_wal_only");
  {
    auto durable = DurableRepository::Open(dir, Opts(2));
    ASSERT_TRUE(durable.ok()) << durable.status();
    for (size_t i = 0; i < kDocs; ++i) {
      ASSERT_TRUE((*durable)->Add(MakeDoc(i)).ok());
    }
    // No checkpoint: everything lives in the WALs.
  }

  auto durable = DurableRepository::Open(dir, Opts(2));
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_EQ((*durable)->stats().wal_replayed, kDocs);
  EXPECT_EQ((*durable)->stats().mmap_hits, 0u);
  ExpectEquivalent(*FreshBuild(2), (*durable)->repo());
}

TEST(SnapshotReload, ReshardedReopenRehomesWal) {
  const std::string dir = FreshDir("reload_reshard");
  {
    auto durable = DurableRepository::Open(dir, Opts(4));
    ASSERT_TRUE(durable.ok()) << durable.status();
    for (size_t i = 0; i < kDocs; ++i) {
      ASSERT_TRUE((*durable)->Add(MakeDoc(i)).ok());
    }
  }

  // Reopen with fewer shards: the four logs' records must be re-homed
  // into two, with nothing lost...
  {
    auto durable = DurableRepository::Open(dir, Opts(2));
    ASSERT_TRUE(durable.ok()) << durable.status();
    EXPECT_EQ((*durable)->stats().wal_replayed, kDocs);
    ExpectEquivalent(*FreshBuild(2), (*durable)->repo());
  }
  // ...and the rewritten directory must replay cleanly once more.
  {
    auto durable = DurableRepository::Open(dir, Opts(2));
    ASSERT_TRUE(durable.ok()) << durable.status();
    EXPECT_EQ((*durable)->stats().wal_replayed, kDocs);
    ExpectEquivalent(*FreshBuild(2), (*durable)->repo());
  }
}

TEST(SnapshotReload, CheckpointThenMoreAddsThenReload) {
  const std::string dir = FreshDir("reload_mixed");
  {
    auto durable = DurableRepository::Open(dir, Opts(2));
    ASSERT_TRUE(durable.ok()) << durable.status();
    for (size_t i = 0; i < kDocs / 2; ++i) {
      ASSERT_TRUE((*durable)->Add(MakeDoc(i)).ok());
    }
    ASSERT_TRUE((*durable)->Checkpoint().ok());
    for (size_t i = kDocs / 2; i < kDocs; ++i) {
      ASSERT_TRUE((*durable)->Add(MakeDoc(i)).ok());
    }
  }

  auto durable = DurableRepository::Open(dir, Opts(2));
  ASSERT_TRUE(durable.ok()) << durable.status();
  // Half from the snapshot, half replayed over it.
  EXPECT_EQ((*durable)->stats().mmap_hits, kDocs / 2);
  EXPECT_EQ((*durable)->stats().wal_replayed, kDocs - kDocs / 2);
  ExpectEquivalent(*FreshBuild(2), (*durable)->repo());
}

TEST(SnapshotReload, SchemaSurvivesRecovery) {
  const ConceptSet concepts = ResumeConcepts();
  const ConstraintSet constraints = ResumeConstraints();
  const SynonymRecognizer recognizer(&concepts);
  const DocumentConverter converter(&concepts, &recognizer, &constraints);
  std::vector<std::unique_ptr<Node>> docs;
  for (size_t i = 0; i < 60; ++i) {
    docs.push_back(converter.Convert(GenerateResume(i).html));
  }

  // Every mining configuration with the schema and DTD a fresh miner
  // derives from the documents: the ground truth for every state.
  struct Expected {
    MiningOptions mining;
    std::string schema;
    std::string dtd;
  };
  std::vector<Expected> expected;
  for (const size_t rep_threshold : {size_t{1}, size_t{3}, size_t{4}}) {
    for (const bool constrained : {false, true}) {
      Expected e;
      e.mining.rep_threshold = rep_threshold;
      if (constrained) e.mining.constraints = &constraints;
      FrequentPathMiner fresh(e.mining);
      for (const std::unique_ptr<Node>& doc : docs) fresh.AddDocument(*doc);
      const MajoritySchema schema = fresh.Discover();
      e.schema = schema.ToString();
      e.dtd = BuildDtd(schema).ToString();
      expected.push_back(std::move(e));
    }
  }
  auto expect_fresh = [&](const XmlRepository& repo, const char* state) {
    for (const Expected& e : expected) {
      const MajoritySchema schema = repo.DiscoverSchema(e.mining);
      const std::string where =
          std::string(state) + ", " + std::to_string(repo.num_shards()) +
          " shards, rep_threshold=" + std::to_string(e.mining.rep_threshold) +
          (e.mining.constraints != nullptr ? ", constrained" : "");
      EXPECT_EQ(schema.ToString(), e.schema) << where;
      EXPECT_EQ(BuildDtd(schema).ToString(), e.dtd) << where;
    }
  };

  for (const size_t shards : {size_t{1}, size_t{3}}) {
    const std::string dir =
        FreshDir("reload_schema_" + std::to_string(shards));
    {
      auto durable = DurableRepository::Open(dir, Opts(shards));
      ASSERT_TRUE(durable.ok()) << durable.status();
      for (const std::unique_ptr<Node>& doc : docs) {
        ASSERT_TRUE((*durable)->Add(doc->Clone()).ok());
      }
      expect_fresh((*durable)->repo(), "live");
    }
    {
      // No checkpoint yet: every document comes back by WAL replay.
      auto durable = DurableRepository::Open(dir, Opts(shards));
      ASSERT_TRUE(durable.ok()) << durable.status();
      EXPECT_EQ((*durable)->stats().wal_replayed, docs.size());
      expect_fresh((*durable)->repo(), "WAL replay");
      ASSERT_TRUE((*durable)->Checkpoint().ok());
    }
    auto durable = DurableRepository::Open(dir, Opts(shards));
    ASSERT_TRUE(durable.ok()) << durable.status();
    EXPECT_EQ((*durable)->stats().mmap_hits, docs.size());
    EXPECT_EQ((*durable)->stats().wal_replayed, 0u);
    expect_fresh((*durable)->repo(), "snapshot reopen");
  }
}

}  // namespace
}  // namespace storage
}  // namespace webre
