// Crash-recovery matrix (DESIGN.md §14): a child process ingests (and
// checkpoints) with WEBRE_CRASH_POINT armed, dies mid-write at every
// durability boundary the storage layer has, and the parent then
// reopens the directory. Recovery must always yield a dense document
// prefix whose query results are byte-identical to a fresh in-memory
// build over the same documents — no partial document, no lost
// acknowledged write below the chosen sync level, no UB.
//
// The parent deliberately never calls DurableRepository::Add or
// Checkpoint itself: CrashPointArmed caches getenv once per process,
// and the fork children must each read their own armed point.

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "repository/repository.h"
#include "storage/crash_point.h"
#include "storage/durable_repository.h"
#include "storage/wal.h"
#include "util/file.h"
#include "util/rng.h"
#include "xml/node.h"

namespace webre {
namespace storage {
namespace {

constexpr size_t kDocs = 12;
constexpr size_t kHalf = kDocs / 2;

const char* const kQueries[] = {
    "/resume/EDUCATION/DATE",
    "//DATE",
    "//LANGUAGE[val~\"java\"]",
    "/resume/*/PHONE",
    "//*[val~\"199\"]",
};

std::unique_ptr<Node> MakeDoc(size_t index) {
  Rng rng(0xC4A5E0u + index);
  std::unique_ptr<Node> root = Node::MakeElement("resume");
  Node* contact = root->AddElement("CONTACT");
  contact->AddElement("LOCATION")->set_val(
      "city-" + std::to_string(rng.NextBelow(20)));
  if (rng.NextBool(0.7)) {
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
  root->AddElement("SKILLS")->AddElement("LANGUAGE")->set_val(
      rng.NextBool(0.5) ? "Java" : "Prolog");
  return root;
}

DurableOptions Opts(WalSyncMode sync = WalSyncMode::kFdatasync) {
  DurableOptions options;
  options.repository.num_shards = 2;
  options.wal_sync = sync;
  return options;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  (void)::system(("rm -rf '" + dir + "'").c_str());
  return dir;
}

// ---- child-side scenarios (plain exit codes, no gtest) ----

// Adds kDocs documents; a wal.append.* point kills the process during
// the very first Add.
void IngestScenario(const std::string& dir) {
  auto durable = DurableRepository::Open(dir, Opts());
  if (!durable.ok()) ::_exit(3);
  for (size_t i = 0; i < kDocs; ++i) {
    if (!(*durable)->Add(MakeDoc(i)).ok()) ::_exit(4);
  }
}

// Adds half, checkpoints (where every checkpoint.* point kills the
// process), then adds the rest.
void CheckpointScenario(const std::string& dir) {
  auto durable = DurableRepository::Open(dir, Opts(WalSyncMode::kNone));
  if (!durable.ok()) ::_exit(3);
  for (size_t i = 0; i < kHalf; ++i) {
    if (!(*durable)->Add(MakeDoc(i)).ok()) ::_exit(4);
  }
  if (!(*durable)->Checkpoint().ok()) ::_exit(5);
  for (size_t i = kHalf; i < kDocs; ++i) {
    if (!(*durable)->Add(MakeDoc(i)).ok()) ::_exit(4);
  }
}

// Runs `scenario` in a fork with WEBRE_CRASH_POINT=point (unset when
// null); returns the child's exit code.
int RunChild(const char* point, void (*scenario)(const std::string&),
             const std::string& dir) {
  ::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (point != nullptr) ::setenv("WEBRE_CRASH_POINT", point, 1);
    scenario(dir);
    ::_exit(0);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

// ---- parent-side verification ----

std::vector<std::pair<DocId, uint32_t>> Run(const XmlRepository& repo,
                                            const char* query) {
  auto matches = repo.Query(query);
  EXPECT_TRUE(matches.ok()) << matches.status();
  std::vector<std::pair<DocId, uint32_t>> out;
  if (matches.ok()) {
    for (const QueryMatch& m : *matches) out.emplace_back(m.doc, m.pos);
  }
  return out;
}

// Reopens `dir`, asserts the recovered prefix has exactly
// `expected_docs` documents, and that every query answers identically
// to a fresh in-memory build over those documents. Reopens a second
// time to pin that recovery itself is idempotent.
void VerifyRecovery(const std::string& dir, size_t expected_docs) {
  RepositoryOptions fresh_options;
  fresh_options.num_shards = 2;
  XmlRepository fresh(fresh_options);
  for (size_t i = 0; i < expected_docs; ++i) {
    ASSERT_TRUE(fresh.Add(MakeDoc(i)).ok());
  }

  for (int reopen = 0; reopen < 2; ++reopen) {
    auto durable = DurableRepository::Open(dir, Opts());
    ASSERT_TRUE(durable.ok()) << durable.status();
    const XmlRepository& repo = (*durable)->repo();
    ASSERT_EQ(repo.size(), expected_docs) << "reopen " << reopen;
    // Everything recovered is accounted for: snapshot views + replay.
    const obs::StorageStatsView stats = (*durable)->stats();
    EXPECT_EQ(stats.mmap_hits + stats.wal_replayed, expected_docs);
    for (const char* query : kQueries) {
      EXPECT_EQ(Run(repo, query), Run(fresh, query))
          << query << " (reopen " << reopen << ")";
    }
  }
}

struct CrashCase {
  const char* point;  // null = control run, no crash
  bool checkpoint_scenario;
  size_t expected_docs;
};

// Documents that survive each kill, given _exit semantics: a completed
// write() is in the kernel and survives a process crash even unsynced;
// a torn or never-issued write is gone. Crashes fire on the first Add
// (wal scenario) or inside the lone Checkpoint (checkpoint scenario).
const CrashCase kCases[] = {
    {nullptr, false, kDocs},                       // control
    {"wal.append.before_write", false, 0},         //
    {"wal.append.torn", false, 0},                 // torn half-record
    {"wal.append.before_sync", false, 1},          //
    {"wal.append.after_sync", false, 1},           //
    {nullptr, true, kDocs},                        // control
    {"checkpoint.before_tmp", true, kHalf},        //
    {"checkpoint.tmp.torn", true, kHalf},          // torn snapshot.tmp
    {"checkpoint.before_tmp_sync", true, kHalf},   //
    {"checkpoint.before_rename", true, kHalf},     //
    {"checkpoint.before_dir_sync", true, kHalf},   //
    {"checkpoint.before_wal_truncate", true, kHalf},
    {"checkpoint.mid_wal_truncate", true, kHalf},  // half-truncated WALs
    {"checkpoint.done", true, kHalf},              //
};

TEST(CrashInjection, EveryCrashPointRecoversConsistently) {
  // The matrix covers every point the storage layer declares (plus two
  // clean controls); fail loudly if a new point is added unexercised.
  size_t exercised = 0;
  for (const CrashCase& c : kCases) {
    if (c.point != nullptr) ++exercised;
  }
  ASSERT_EQ(exercised, kCrashPointCount);

  for (const CrashCase& c : kCases) {
    SCOPED_TRACE(c.point != nullptr ? c.point : "(control)");
    const std::string dir =
        FreshDir(std::string("crash_") +
                 (c.point != nullptr ? c.point : "control") +
                 (c.checkpoint_scenario ? "_ckpt" : "_wal"));
    const int code = RunChild(
        c.point, c.checkpoint_scenario ? CheckpointScenario : IngestScenario,
        dir);
    if (c.point == nullptr) {
      ASSERT_EQ(code, 0);
    } else {
      ASSERT_EQ(code, kCrashExitCode);
    }
    VerifyRecovery(dir, c.expected_docs);
  }
}

TEST(CrashInjection, TornWalTailTruncatesToPrefix) {
  const std::string dir = FreshDir("crash_torn_tail");
  ASSERT_EQ(RunChild(nullptr, IngestScenario, dir), 0);

  // Chop bytes off shard 0's log: its last record (doc 10) is torn, so
  // the dense prefix ends there and doc 11 is dropped with it.
  const std::string wal0 = dir + "/wal-0.log";
  struct stat st;
  ASSERT_EQ(::stat(wal0.c_str(), &st), 0);
  ASSERT_GT(st.st_size, static_cast<off_t>(kWalHeaderSize + 5));
  ASSERT_EQ(::truncate(wal0.c_str(), st.st_size - 5), 0);

  VerifyRecovery(dir, 10);
}

TEST(CrashInjection, BitFlippedWalRecordTruncatesToPrefix) {
  const std::string dir = FreshDir("crash_bit_flip");
  ASSERT_EQ(RunChild(nullptr, IngestScenario, dir), 0);

  // Flip one byte inside shard 1's first record (doc 1): its CRC fails,
  // shard 1 contributes nothing, and only doc 0 stays dense.
  const std::string wal1 = dir + "/wal-1.log";
  auto contents = ReadFile(wal1);
  ASSERT_TRUE(contents.ok());
  std::string bytes = std::move(*contents);
  ASSERT_GT(bytes.size(), kWalHeaderSize + 10);
  bytes[kWalHeaderSize + 10] ^= 0x20;
  ASSERT_TRUE(WriteFileAtomic(wal1, bytes).ok());

  VerifyRecovery(dir, 1);
}

}  // namespace
}  // namespace storage
}  // namespace webre
