#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "storage/crash_point.h"
#include "storage/crc32c.h"
#include "storage/format.h"

namespace webre {
namespace storage {
namespace {

constexpr char kWalMagic[8] = {'W', 'B', 'R', 'E', 'W', 'A', 'L', '1'};

// Per-record sanity caps: a frame claiming more than this is corruption
// (or an attack), not data — parsing stops there. FlatDoc itself caps
// element_count at 2^28; a block for that many elements with text would
// exceed this too, but real documents are orders of magnitude smaller
// and a WAL that large would have failed long before.
constexpr uint32_t kMaxRecordBytes = 1u << 30;

Status ErrnoStatus(const char* what, const std::string& path) {
  return Status::Internal(std::string(what) + " failed on " + path + ": " +
                          std::strerror(errno));
}

Status WriteAllFd(int fd, std::string_view bytes, const std::string& path) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeWalHeader(uint64_t seed_hash) {
  std::string out;
  out.append(kWalMagic, sizeof(kWalMagic));
  PutU32(out, kWalVersion);
  PutU32(out, 0);  // reserved
  PutU64(out, seed_hash);
  return out;
}

Status CheckWalHeader(std::string_view file, uint64_t seed_hash,
                      uint32_t* version_out) {
  if (file.size() < kWalHeaderSize) {
    return Status::InvalidArgument("WAL shorter than its header");
  }
  if (std::memcmp(file.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::FailedPrecondition("not a WAL file (bad magic)");
  }
  ByteReader reader(file.substr(sizeof(kWalMagic)));
  uint32_t version = 0;
  uint32_t reserved = 0;
  uint64_t stored_hash = 0;
  Status s = reader.ReadU32(version);
  if (s.ok()) s = reader.ReadU32(reserved);
  if (s.ok()) s = reader.ReadU64(stored_hash);
  if (!s.ok()) return s;
  if (version != kWalVersion && version != kFormatV1) {
    return Status::FailedPrecondition("unsupported WAL version " +
                                      std::to_string(version));
  }
  if (stored_hash != seed_hash) {
    return Status::FailedPrecondition(
        "WAL written against a different seeded name vocabulary");
  }
  if (version_out != nullptr) *version_out = version;
  return Status::Ok();
}

std::string EncodeWalRecord(uint64_t doc_id, const FlatDoc& flat) {
  // Collect the distinct NameIds the block uses, ascending, so the
  // record is deterministic for a given document.
  std::vector<NameId> ids;
  ids.reserve(16);
  for (uint32_t i = 0; i < flat.element_count(); ++i) {
    ids.push_back(flat.name(i));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  const NameTable& names = NameTable::Global();
  std::string body;
  body.reserve(64 + flat.block_bytes());
  PutU64(body, doc_id);
  PutU32(body, flat.element_count());
  PutU32(body, static_cast<uint32_t>(ids.size()));
  PutU64(body, flat.block_bytes());
  for (NameId id : ids) {
    const std::string_view name = names.NameOf(id);
    PutU32(body, id);
    PutU32(body, static_cast<uint32_t>(name.size()));
    body.append(name);
  }
  body.append(flat.block_data(), flat.block_bytes());

  std::string framed;
  framed.reserve(8 + body.size());
  PutU32(framed, static_cast<uint32_t>(body.size()));
  PutU32(framed, Crc32c(body.data(), body.size()));
  framed.append(body);
  return framed;
}

size_t ParseWalPayload(std::string_view payload,
                       std::vector<WalRecord>& records, uint32_t version) {
  size_t valid_end = 0;
  ByteReader reader(payload);
  while (reader.remaining() >= 8) {
    uint32_t body_len = 0;
    uint32_t body_crc = 0;
    if (!reader.ReadU32(body_len).ok() || !reader.ReadU32(body_crc).ok()) {
      break;
    }
    if (body_len > kMaxRecordBytes || body_len > reader.remaining()) {
      break;  // torn tail (or garbage length)
    }
    std::string_view body;
    if (!reader.ReadBytes(body_len, body).ok()) break;
    if (Crc32c(body.data(), body.size()) != body_crc) break;

    WalRecord record;
    record.version = version;
    ByteReader br(body);
    uint32_t name_count = 0;
    Status s = br.ReadU64(record.doc_id);
    if (s.ok()) s = br.ReadU32(record.element_count);
    if (s.ok()) s = br.ReadU32(name_count);
    if (s.ok()) s = br.ReadU64(record.block_bytes);
    if (!s.ok()) break;
    bool bad = record.element_count == 0 || name_count > record.element_count;
    record.names.reserve(bad ? 0 : name_count);
    for (uint32_t i = 0; !bad && i < name_count; ++i) {
      uint32_t id = 0;
      uint32_t len = 0;
      std::string_view name;
      if (!br.ReadU32(id).ok() || !br.ReadU32(len).ok() ||
          !br.ReadBytes(len, name).ok()) {
        bad = true;
        break;
      }
      record.names.emplace_back(id, name);
    }
    if (bad) break;
    if (record.block_bytes != br.remaining() ||
        !br.ReadBytes(record.block_bytes, record.block).ok()) {
      break;
    }
    records.push_back(std::move(record));
    valid_end = reader.offset();
  }
  return valid_end;
}

StatusOr<std::unique_ptr<FlatDoc>> DecodeWalDocument(const WalRecord& record) {
  NameTable& names = NameTable::Global();

  // Re-intern the record's dictionary in this process. In the common
  // same-process (or identically-seeded) case every id maps to itself
  // and the block is usable verbatim.
  bool identity = true;
  NameRemap remap;
  remap.reserve(record.names.size());
  for (const auto& [old_id, name] : record.names) {
    NameId new_id;
    try {
      new_id = names.Intern(name);
    } catch (const std::length_error&) {
      return Status::ResourceExhausted("name table full during WAL replay");
    }
    if (!remap.empty() && old_id <= remap.back().first) {
      return Status::InvalidArgument("WAL record dictionary not ascending");
    }
    remap.emplace_back(old_id, new_id);
    identity = identity && old_id == new_id;
  }

  return LoadBlockCopy(record.block, record.element_count, record.version,
                       identity ? nullptr : &remap,
                       static_cast<NameId>(names.size()));
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                     uint64_t seed_hash) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return ErrnoStatus("lseek", path);
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(path, fd));
  if (end == 0) {
    const std::string header = EncodeWalHeader(seed_hash);
    Status s = WriteAllFd(fd, header, path);
    if (s.ok() && ::fsync(fd) != 0) s = ErrnoStatus("fsync", path);
    if (!s.ok()) return s;
  }
  return writer;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(std::string_view record, bool sync) {
  MaybeCrash("wal.append.before_write");
  if (CrashPointArmed("wal.append.torn")) {
    // Simulate a crash mid-write: persist only a prefix of the frame,
    // then die. Recovery must treat the tail as absent.
    const std::string_view torn = record.substr(0, record.size() / 2);
    (void)WriteAllFd(fd_, torn, path_);
    (void)::fsync(fd_);
    CrashNow();
  }
  Status s = WriteAllFd(fd_, record, path_);
  if (!s.ok()) return s;
  MaybeCrash("wal.append.before_sync");
  if (sync && ::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync", path_);
  MaybeCrash("wal.append.after_sync");
  return Status::Ok();
}

Status WalWriter::Truncate() {
  if (::ftruncate(fd_, static_cast<off_t>(kWalHeaderSize)) != 0) {
    return ErrnoStatus("ftruncate", path_);
  }
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
  return Status::Ok();
}

}  // namespace storage
}  // namespace webre
