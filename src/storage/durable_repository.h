#ifndef WEBRE_STORAGE_DURABLE_REPOSITORY_H_
#define WEBRE_STORAGE_DURABLE_REPOSITORY_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "repository/repository.h"
#include "storage/mapped_file.h"
#include "storage/wal.h"
#include "util/status.h"
#include "xml/node.h"

namespace webre {
namespace storage {

/// When a WAL append becomes durable relative to Add returning.
enum class WalSyncMode {
  /// No explicit sync: the OS flushes at its leisure. An OS crash can
  /// lose recent acknowledged documents; a process crash cannot.
  kNone,
  /// fdatasync before acknowledging: an acknowledged document survives
  /// even power loss (CLI: --wal-sync=fdatasync).
  kFdatasync,
};

struct DurableOptions {
  RepositoryOptions repository;
  WalSyncMode wal_sync = WalSyncMode::kNone;
};

/// A crash-safe XmlRepository: documents admitted through Add are
/// logged to a per-shard WAL before the call returns, and Checkpoint
/// folds everything into one mmap-able snapshot (DESIGN.md §14).
///
/// Directory layout:
///   <dir>/snapshot.webre   latest checkpoint (absent before the first)
///   <dir>/snapshot.tmp     in-flight checkpoint; stray copies from a
///                          crashed checkpoint are removed at Open
///   <dir>/wal-<shard>.log  appends since that checkpoint
///
/// Open maps the snapshot and serves documents as zero-copy FlatDoc
/// views over the mapping (storage.mmap_hits) — warmup is validation,
/// not parsing — then replays the WALs, truncating each at its first
/// torn or corrupt record. Replay admits the densest id prefix the
/// surviving records can extend (documents whose WAL record was lost
/// mid-crash are dropped along with every higher id, so ids stay dense
/// and query results match a fresh build over the surviving prefix).
///
/// Concurrency: Add is safe from any number of threads (and concurrent
/// with queries on repo()); Checkpoint briefly excludes Add.
class DurableRepository {
 public:
  /// Opens (creating if needed) the repository at `dir` and recovers
  /// its state. kFailedPrecondition when the on-disk data was written
  /// by an incompatible format version or seeded-name generation;
  /// kInvalidArgument when the snapshot itself is corrupt (WAL
  /// corruption is recovered from, not reported).
  static StatusOr<std::unique_ptr<DurableRepository>> Open(
      const std::string& dir, DurableOptions options = {});

  DurableRepository(const DurableRepository&) = delete;
  DurableRepository& operator=(const DurableRepository&) = delete;

  /// Validating, durable admission: DTD check (if the repository has
  /// one), freeze, index, WAL append — the document is on the log (at
  /// the configured sync level) before the id is returned. The tree is
  /// freed at freeze time, as XmlRepository::Add frees it.
  StatusOr<DocId> Add(std::unique_ptr<Node> document);

  /// Writes a fresh snapshot (temp + fsync + atomic rename) and
  /// truncates every WAL. On return the directory's state is equivalent
  /// to — and cheaper to open than — the log it replaces. Excludes
  /// concurrent Add for the duration.
  Status Checkpoint();

  /// The serving repository. Queries (and every other const read) are
  /// safe concurrently with durable Adds.
  XmlRepository& repo() { return *repo_; }
  const XmlRepository& repo() const { return *repo_; }

  const std::string& dir() const { return dir_; }

  obs::StorageStatsView stats() const;

 private:
  DurableRepository(std::string dir, DurableOptions options);

  Status Recover();

  std::string dir_;
  DurableOptions options_;
  std::unique_ptr<XmlRepository> repo_;

  /// Keeps the snapshot's pages mapped for the life of the repository
  /// (FlatDoc views point into it). A later Checkpoint's rename does
  /// not disturb it — POSIX keeps mapped pages of a replaced file
  /// valid.
  MappedFile snapshot_;

  /// Add holds it shared, Checkpoint exclusive (so a checkpoint sees a
  /// quiescent repository and can truncate the WALs it just folded in).
  std::shared_mutex checkpoint_mutex_;

  /// One writer + mutex per repository shard; Add serializes appends
  /// per shard only, so unrelated shards log in parallel.
  struct ShardLog {
    std::mutex mutex;
    std::unique_ptr<WalWriter> writer;
  };
  std::vector<std::unique_ptr<ShardLog>> logs_;

  obs::Counter wal_appends_;
  obs::Counter wal_replayed_;
  obs::Counter wal_truncated_bytes_;
  obs::Counter mmap_hits_;
  std::atomic<uint64_t> snapshot_bytes_{0};
};

}  // namespace storage
}  // namespace webre

#endif  // WEBRE_STORAGE_DURABLE_REPOSITORY_H_
