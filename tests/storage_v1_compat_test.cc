// Compatibility of format v1 (DESIGN.md §14): a durable directory
// written by the last v1 build — blocks still carrying the depth array
// and the lowered text pool — must open under format v2 with the same
// query answers. Its blocks are upgraded by copy (so none is served
// from the mapping), its WALs are rewritten in v2 before anything is
// appended, and the next checkpoint writes a v2 snapshot that maps
// again. The fixture (tests/data/storage_v1) holds the v1 snapshot, two
// v1 WALs and the answers the writing build gave; see its README.

#include <stdlib.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "repository/repository.h"
#include "storage/durable_repository.h"
#include "storage/format.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/file.h"
#include "xml/node.h"

namespace webre {
namespace storage {
namespace {

constexpr size_t kFixtureDocs = 18;       // 12 in the snapshot, 6 in WALs
constexpr size_t kFixtureWalRecords = 6;
const char* const kFixtureFiles[] = {"snapshot.webre", "wal-0.log",
                                     "wal-1.log"};

std::string FixturePath(const std::string& name) {
  return std::string(WEBRE_V1_FIXTURE_DIR) + "/" + name;
}

// Query -> answer lines ("doc pos val"), as the fixture records them.
using Answers = std::map<std::string, std::vector<std::string>>;

Answers ReadRecordedAnswers() {
  Answers answers;
  std::istringstream in(ReadFile(FixturePath("answers.txt")).value());
  std::string line;
  std::vector<std::string>* current = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("Q ", 0) == 0) {
      current = &answers[line.substr(2)];
    } else if (current != nullptr) {
      current->push_back(line);
    }
  }
  return answers;
}

// The same rendering for `repo`, keeping matches in documents below
// `doc_limit`.
Answers Render(const XmlRepository& repo, const Answers& queries,
               size_t doc_limit) {
  Answers out;
  for (const auto& [query, unused] : queries) {
    std::vector<std::string>& lines = out[query];
    auto matches = repo.Query(query);
    EXPECT_TRUE(matches.ok()) << query;
    if (!matches.ok()) continue;
    for (const QueryMatch& m : *matches) {
      if (m.doc >= doc_limit) continue;
      lines.push_back(std::to_string(m.doc) + " " + std::to_string(m.pos) +
                      " " + std::string(m.flat->val(m.pos)));
    }
  }
  return out;
}

// A fresh copy of the fixture directory (Open rewrites its WALs).
std::string CopyFixture() {
  std::string dir = testing::TempDir() + "/storage_v1_XXXXXX";
  EXPECT_NE(::mkdtemp(dir.data()), nullptr);
  for (const char* name : kFixtureFiles) {
    EXPECT_TRUE(WriteFile(dir + "/" + name,
                          ReadFile(FixturePath(name)).value())
                    .ok());
  }
  return dir;
}

// The u32 format version right after an 8-byte magic.
uint32_t FileVersion(const std::string& path) {
  const std::string bytes = ReadFile(path).value();
  EXPECT_GE(bytes.size(), 12u) << path;
  return bytes.size() < 12 ? 0 : GetU32(bytes.data() + 8);
}

std::unique_ptr<DurableRepository> OpenOrDie(const std::string& dir,
                                             size_t shards) {
  DurableOptions options;
  options.repository.num_shards = shards;
  auto opened = DurableRepository::Open(dir, options);
  EXPECT_TRUE(opened.ok()) << opened.status();
  return opened.ok() ? std::move(opened).value() : nullptr;
}

std::unique_ptr<Node> ExtraDoc() {
  std::unique_ptr<Node> root = Node::MakeElement("resume");
  Node* date = root->AddElement("EDUCATION")->AddElement("DATE");
  date->set_val("June 1999");
  date->AddElement("DEGREE")->set_val("BS");
  return root;
}

TEST(StorageV1Compat, FixtureIsVersion1) {
  EXPECT_EQ(FileVersion(FixturePath("snapshot.webre")), kFormatV1);
  EXPECT_EQ(FileVersion(FixturePath("wal-0.log")), kFormatV1);
  EXPECT_EQ(FileVersion(FixturePath("wal-1.log")), kFormatV1);
  EXPECT_EQ(ReadRecordedAnswers().size(), 12u);
}

// Same shard count as the writer (2) and a re-sharded open (3).
TEST(StorageV1Compat, OpensUpgradesAndCheckpointsToV2) {
  const Answers recorded = ReadRecordedAnswers();
  for (size_t shards : {size_t{2}, size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string dir = CopyFixture();

    // Open: every block upgraded by copy, the answers unchanged, the
    // WALs rewritten in v2 while the snapshot stays v1 on disk.
    std::unique_ptr<DurableRepository> durable = OpenOrDie(dir, shards);
    ASSERT_NE(durable, nullptr);
    EXPECT_EQ(durable->repo().size(), kFixtureDocs);
    EXPECT_EQ(durable->stats().mmap_hits, 0u);
    EXPECT_EQ(durable->stats().wal_replayed, kFixtureWalRecords);
    EXPECT_EQ(Render(durable->repo(), recorded, kFixtureDocs), recorded);
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(FileVersion(dir + "/wal-" + std::to_string(s) + ".log"),
                kWalVersion);
    }
    EXPECT_EQ(FileVersion(dir + "/snapshot.webre"), kFormatV1);

    // Add, then reopen: the new record replays from the v2 log.
    ASSERT_TRUE(durable->Add(ExtraDoc()).ok());
    const Answers with_extra =
        Render(durable->repo(), recorded, kFixtureDocs + 1);
    durable.reset();
    durable = OpenOrDie(dir, shards);
    ASSERT_NE(durable, nullptr);
    EXPECT_EQ(durable->repo().size(), kFixtureDocs + 1);
    EXPECT_EQ(durable->stats().mmap_hits, 0u);
    EXPECT_EQ(durable->stats().wal_replayed, kFixtureWalRecords + 1);
    EXPECT_EQ(Render(durable->repo(), recorded, kFixtureDocs + 1),
              with_extra);
    EXPECT_EQ(Render(durable->repo(), recorded, kFixtureDocs), recorded);

    // Checkpoint, then reopen: a v2 snapshot, served from the mapping.
    ASSERT_TRUE(durable->Checkpoint().ok());
    durable.reset();
    EXPECT_EQ(FileVersion(dir + "/snapshot.webre"), kSnapshotVersion);
    durable = OpenOrDie(dir, shards);
    ASSERT_NE(durable, nullptr);
    EXPECT_EQ(durable->repo().size(), kFixtureDocs + 1);
    EXPECT_EQ(durable->stats().mmap_hits, kFixtureDocs + 1);
    EXPECT_EQ(Render(durable->repo(), recorded, kFixtureDocs + 1),
              with_extra);
    durable.reset();

    for (const std::string name : {"snapshot.webre", "wal-0.log",
                                   "wal-1.log", "wal-2.log"}) {
      ::unlink((dir + "/" + name).c_str());
    }
    ::rmdir(dir.c_str());
  }
}

}  // namespace
}  // namespace storage
}  // namespace webre
