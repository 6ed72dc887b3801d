#include "storage/durable_repository.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <set>
#include <thread>

#include "storage/crash_point.h"
#include "storage/snapshot.h"
#include "util/file.h"

namespace webre {
namespace storage {
namespace {

std::string WalPath(const std::string& dir, size_t shard) {
  return dir + "/wal-" + std::to_string(shard) + ".log";
}

/// Parses the shard index out of "wal-<digits>.log"; SIZE_MAX when the
/// name is not of that shape.
size_t WalShardOf(std::string_view name) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() <= kPrefix.size() + kSuffix.size() ||
      name.substr(0, kPrefix.size()) != kPrefix ||
      name.substr(name.size() - kSuffix.size()) != kSuffix) {
    return SIZE_MAX;
  }
  const std::string_view digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  size_t shard = 0;
  for (char c : digits) {
    if (c < '0' || c > '9' || shard > (SIZE_MAX - 9) / 10) return SIZE_MAX;
    shard = shard * 10 + static_cast<size_t>(c - '0');
  }
  return shard;
}

}  // namespace

DurableRepository::DurableRepository(std::string dir, DurableOptions options)
    : dir_(std::move(dir)),
      options_(options),
      repo_(std::make_unique<XmlRepository>(options.repository)) {}

StatusOr<std::unique_ptr<DurableRepository>> DurableRepository::Open(
    const std::string& dir, DurableOptions options) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("cannot create data dir " + dir + ": " +
                            std::strerror(errno));
  }
  std::unique_ptr<DurableRepository> repo(
      new DurableRepository(dir, options));
  WEBRE_RETURN_IF_ERROR(repo->Recover());
  return repo;
}

Status DurableRepository::Recover() {
  // A crash during a checkpoint can leave snapshot.tmp behind; the
  // rename never happened, so its contents are meaningless.
  ::unlink((dir_ + "/snapshot.tmp").c_str());

  // ---- Snapshot ----
  const std::string snap_path = dir_ + "/snapshot.webre";
  size_t snapshot_docs = 0;
  struct stat st;
  if (::stat(snap_path.c_str(), &st) == 0) {
    auto mapped = MappedFile::Map(snap_path);
    if (!mapped.ok()) return mapped.status();
    snapshot_ = std::move(mapped).value();
    LoadedSnapshot loaded;
    WEBRE_RETURN_IF_ERROR(LoadSnapshotImage(snapshot_.bytes(), loaded));
    snapshot_bytes_.store(snapshot_.bytes().size(), std::memory_order_relaxed);

    const NameId writer_limit = static_cast<NameId>(loaded.name_map.size());
    // A current-version block under unchanged writer ids is served
    // straight out of the mapping, zero copies. Everything else is
    // copied: a v1 block is upgraded, and when the dynamic-name order
    // differed (this process interned other names first) the block's
    // NameIds are rewritten.
    const bool mapped_view =
        loaded.version == kSnapshotVersion && loaded.identity_names;
    const NameRemap* remap = loaded.identity_names ? nullptr : &loaded.name_map;
    const NameId copy_limit =
        loaded.identity_names ? writer_limit
                              : static_cast<NameId>(NameTable::Global().size());
    // Restore is shard-partitioned (shard = id mod N), so shards fill
    // concurrently — this loop, not the mmap, is the bulk of warmup on
    // a large snapshot. Per-shard state is byte-identical to a serial
    // restore: each worker feeds its shard the same ascending id
    // sequence the serial loop would.
    const size_t doc_total = loaded.documents.size();
    const size_t restore_shards = repo_->num_shards();
    auto restore_one = [&](DocId id) -> Status {
      const LoadedDocument& doc = loaded.documents[id];
      auto flat =
          mapped_view
              ? FlatDoc::FromMappedBlock(doc.block.data(), doc.block.size(),
                                         doc.element_count, writer_limit)
              : LoadBlockCopy(doc.block, doc.element_count, loaded.version,
                              remap, copy_limit);
      if (!flat.ok()) return flat.status();
      // The summary arrives wholesale below, so the document itself is
      // stored without a walk.
      return repo_->RestoreDocumentAt(id, std::move(flat).value());
    };
    auto restore_shard = [&](size_t s) -> Status {
      for (size_t id = s; id < doc_total; id += restore_shards) {
        WEBRE_RETURN_IF_ERROR(restore_one(static_cast<DocId>(id)));
      }
      return Status::Ok();
    };
    const size_t workers =
        std::min<size_t>(restore_shards,
                         std::max<unsigned>(1u,
                                            std::thread::hardware_concurrency()));
    if (workers <= 1 || doc_total < 2 * restore_shards) {
      for (size_t s = 0; s < restore_shards; ++s) {
        WEBRE_RETURN_IF_ERROR(restore_shard(s));
      }
    } else {
      std::vector<Status> results(restore_shards, Status::Ok());
      std::vector<std::thread> threads;
      threads.reserve(workers);
      for (size_t t = 0; t < workers; ++t) {
        threads.emplace_back([&, t] {
          for (size_t s = t; s < restore_shards; s += workers) {
            results[s] = restore_shard(s);
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      for (const Status& status : results) {
        WEBRE_RETURN_IF_ERROR(status);
      }
    }
    repo_->SealRestore(doc_total);
    if (mapped_view) mmap_hits_.Add(doc_total);
    for (LoadedSnapshot::SummaryEntry& entry : loaded.summary) {
      if (entry.name >= writer_limit) {
        return Status::InvalidArgument(
            "snapshot summary names an id beyond its NAMES section");
      }
      WEBRE_RETURN_IF_ERROR(repo_->RestoreSummaryEntry(
          entry.parent, loaded.name_map[entry.name].second,
          std::move(entry.docs),
          std::move(entry.occurrences)));
    }
    snapshot_docs = loaded.documents.size();
  }

  // ---- WAL scan ----
  const uint64_t seed_hash = SeedVocabularyHash();
  const size_t num_shards = repo_->num_shards();

  std::vector<std::pair<size_t, std::string>> wal_files;  // (shard, name)
  std::vector<std::string> stray_files;
  if (DIR* d = ::opendir(dir_.c_str())) {
    while (struct dirent* ent = ::readdir(d)) {
      const std::string_view name(ent->d_name);
      if (name.substr(0, 4) != "wal-") continue;
      const size_t shard = WalShardOf(name);
      if (shard == SIZE_MAX) {
        stray_files.emplace_back(name);
      } else {
        wal_files.emplace_back(shard, std::string(name));
      }
    }
    ::closedir(d);
  }
  std::sort(wal_files.begin(), wal_files.end());

  // `rewrite` = the on-disk log set no longer matches what replay
  // admitted (torn tails, dropped records, a changed shard count) or is
  // a v1 log, which is never appended to; the logs must be rewritten
  // so the next Open replays exactly the admitted set, in v2.
  bool rewrite = !stray_files.empty();
  {
    std::set<size_t> expected;
    for (size_t s = 0; s < num_shards; ++s) expected.insert(s);
    std::set<size_t> found;
    for (const auto& [shard, name] : wal_files) found.insert(shard);
    if (!found.empty() && found != expected) rewrite = true;
  }

  std::vector<std::string> contents;  // parsed records view these
  contents.reserve(wal_files.size());
  std::vector<WalRecord> records;
  for (const auto& [shard, name] : wal_files) {
    auto file = ReadFile(dir_ + "/" + name);
    if (!file.ok()) return file.status();
    contents.push_back(std::move(file).value());
    const std::string& bytes = contents.back();
    if (bytes.size() < kWalHeaderSize) {
      // Torn during header creation: nothing recoverable in it.
      if (!bytes.empty()) rewrite = true;
      continue;
    }
    uint32_t version = 0;
    WEBRE_RETURN_IF_ERROR(CheckWalHeader(bytes, seed_hash, &version));
    if (version != kWalVersion) rewrite = true;
    const std::string_view payload =
        std::string_view(bytes).substr(kWalHeaderSize);
    const size_t before = records.size();
    const size_t valid_end = ParseWalPayload(payload, records, version);
    if (valid_end < payload.size()) {
      rewrite = true;
      wal_truncated_bytes_.Add(payload.size() - valid_end);
    }
    for (size_t i = before; i < records.size(); ++i) {
      if (records[i].doc_id % num_shards != shard) rewrite = true;
    }
  }

  // ---- Replay: admit the densest id prefix ----
  std::stable_sort(records.begin(), records.end(),
                   [](const WalRecord& a, const WalRecord& b) {
                     return a.doc_id < b.doc_id;
                   });
  size_t next_id = snapshot_docs;
  for (const WalRecord& record : records) {
    if (record.doc_id < next_id) {
      // Already in the snapshot (a crash between snapshot rename and
      // WAL truncation), or a duplicate id: the in-memory copy wins.
      rewrite = true;
      continue;
    }
    if (record.doc_id > next_id) {
      // A gap: the record for `next_id` was lost (torn away). Ids must
      // stay dense, so everything beyond the gap is dropped too.
      rewrite = true;
      break;
    }
    auto flat = DecodeWalDocument(record);
    if (!flat.ok()) {
      // CRC-valid but semantically broken record — treat like a torn
      // tail: keep the prefix, drop the rest.
      rewrite = true;
      break;
    }
    auto id = repo_->AddFrozen(std::move(flat).value());
    if (!id.ok()) return id.status();
    ++next_id;
    wal_replayed_.Increment();
  }
  if (next_id - snapshot_docs < records.size()) rewrite = true;

  // ---- Rewrite the logs when replay dropped, re-homed or upgraded
  // anything: each admitted document is re-encoded from its stored form.
  if (rewrite) {
    for (size_t s = 0; s < num_shards; ++s) {
      std::string bytes = EncodeWalHeader(seed_hash);
      for (DocId id = snapshot_docs; id < next_id; ++id) {
        if (id % num_shards == s) {
          bytes.append(EncodeWalRecord(id, *repo_->flat_document(id)));
        }
      }
      WEBRE_RETURN_IF_ERROR(WriteFileAtomic(WalPath(dir_, s), bytes));
    }
    for (const auto& [shard, name] : wal_files) {
      if (shard >= num_shards) ::unlink((dir_ + "/" + name).c_str());
    }
    for (const std::string& name : stray_files) {
      ::unlink((dir_ + "/" + name).c_str());
    }
    WEBRE_RETURN_IF_ERROR(SyncDir(dir_));
  }

  // ---- Append handles ----
  logs_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto writer = WalWriter::Open(WalPath(dir_, s), seed_hash);
    if (!writer.ok()) return writer.status();
    logs_.push_back(std::make_unique<ShardLog>());
    logs_.back()->writer = std::move(writer).value();
  }
  return Status::Ok();
}

StatusOr<DocId> DurableRepository::Add(std::unique_ptr<Node> document) {
  // Validation happens in Prepare — AddFrozen deliberately skips the
  // DTD check, so the durable path gates admission with Add's prelude.
  StatusOr<std::unique_ptr<FlatDoc>> flat =
      repo_->Prepare(std::move(document));
  if (!flat.ok()) return flat.status();

  std::shared_lock<std::shared_mutex> checkpoint_lock(checkpoint_mutex_);
  auto id_or = repo_->AddFrozen(std::move(flat).value());
  if (!id_or.ok()) return id_or.status();
  const DocId id = *id_or;

  // The repository owns the (immutable) FlatDoc now; encode the WAL
  // record from its stored form and log it before acknowledging.
  const FlatDoc* stored = repo_->flat_document(id);
  const std::string record = EncodeWalRecord(id, *stored);
  ShardLog& log = *logs_[id % logs_.size()];
  {
    std::lock_guard<std::mutex> lock(log.mutex);
    WEBRE_RETURN_IF_ERROR(log.writer->Append(
        record, options_.wal_sync == WalSyncMode::kFdatasync));
  }
  wal_appends_.Increment();
  return id;
}

Status DurableRepository::Checkpoint() {
  std::unique_lock<std::shared_mutex> checkpoint_lock(checkpoint_mutex_);
  const std::string image = BuildSnapshotImage(*repo_);
  WEBRE_RETURN_IF_ERROR(WriteSnapshotFile(dir_, image));
  snapshot_bytes_.store(image.size(), std::memory_order_relaxed);
  MaybeCrash("checkpoint.before_wal_truncate");
  bool first = true;
  for (auto& log : logs_) {
    if (!first) MaybeCrash("checkpoint.mid_wal_truncate");
    first = false;
    std::lock_guard<std::mutex> lock(log->mutex);
    WEBRE_RETURN_IF_ERROR(log->writer->Truncate());
  }
  MaybeCrash("checkpoint.done");
  return Status::Ok();
}

obs::StorageStatsView DurableRepository::stats() const {
  obs::StorageStatsView view;
  view.wal_appends = wal_appends_.value();
  view.wal_replayed = wal_replayed_.value();
  view.wal_truncated_bytes = wal_truncated_bytes_.value();
  view.snapshot_bytes = snapshot_bytes_.load(std::memory_order_relaxed);
  view.mmap_hits = mmap_hits_.value();
  return view;
}

}  // namespace storage
}  // namespace webre
