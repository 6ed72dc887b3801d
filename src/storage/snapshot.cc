#include "storage/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "storage/crash_point.h"
#include "storage/crc32c.h"
#include "storage/format.h"
#include "util/file.h"

namespace webre {
namespace storage {
namespace {

constexpr char kSnapshotMagic[8] = {'W', 'B', 'R', 'E', 'S', 'N', 'P', '1'};
constexpr size_t kSectionEntrySize = 32;
constexpr uint32_t kMaxSections = 16;

struct SectionDesc {
  uint32_t type = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
};

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

std::string BuildNamesSection(size_t name_count) {
  const NameTable& names = NameTable::Global();
  std::string out;
  PutU64(out, name_count);
  for (size_t i = 0; i < name_count; ++i) {
    const std::string_view name = names.NameOf(static_cast<NameId>(i));
    PutU32(out, static_cast<uint32_t>(name.size()));
    out.append(name);
  }
  PadTo(out, 8);  // later sections' offsets must stay 8-aligned
  return out;
}

std::string BuildDocsSection(const XmlRepository& repo) {
  const size_t doc_count = repo.size();

  std::string out;
  PutU64(out, doc_count);
  const size_t table_start = out.size();
  out.append(doc_count * 24, '\0');  // filled below
  PadTo(out, 8);
  for (DocId id = 0; id < doc_count; ++id) {
    const FlatDoc* doc = repo.flat_document(id);
    PadTo(out, 8);
    const uint64_t block_off = out.size();
    uint64_t block_bytes = 0;
    uint32_t element_count = 0;
    if (doc != nullptr) {  // holes cannot occur in a quiescent repo
      block_bytes = doc->block_bytes();
      element_count = doc->element_count();
      out.append(doc->block_data(), doc->block_bytes());
    }
    std::string entry;
    PutU64(entry, block_off);
    PutU64(entry, block_bytes);
    PutU32(entry, element_count);
    PutU32(entry, 0);
    out.replace(table_start + id * 24, 24, entry);
  }
  PadTo(out, 8);
  return out;
}

std::string BuildSummarySection(const XmlRepository& repo) {
  std::string out;
  repo.WithSummary([&out](const PathIndex& summary) {
    PutU64(out, summary.path_count());
    for (uint32_t id = 0; id < summary.path_count(); ++id) {
      const PathIndex::Entry& entry = summary.entry(id);
      PutU32(out, entry.parent);
      PutU32(out, entry.name);
      PutU64(out, entry.docs.size());
      PutU64(out, entry.occurrences.size());
      for (DocId doc : entry.docs) PutU64(out, doc);
      for (const PathOccurrence& occ : entry.occurrences) {
        PutU64(out, occ.doc);
        PutU32(out, occ.pos);
        PutU32(out, 0);
      }
    }
  });
  PadTo(out, 8);
  return out;
}

}  // namespace

uint64_t SeedVocabularyHash() {
  const NameTable& names = NameTable::Global();
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  auto mix = [&hash](const char* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      hash ^= static_cast<unsigned char>(data[i]);
      hash *= 0x100000001b3ull;
    }
  };
  const size_t seeds = names.seed_count();
  for (size_t i = 0; i < seeds; ++i) {
    const std::string_view name = names.NameOf(static_cast<NameId>(i));
    mix(name.data(), name.size());
    const char sep = '\0';
    mix(&sep, 1);
  }
  return hash ^ seeds;
}

std::string BuildSnapshotImage(const XmlRepository& repo) {
  const size_t name_count = NameTable::Global().size();
  const std::string sections[3] = {BuildNamesSection(name_count),
                                   BuildDocsSection(repo),
                                   BuildSummarySection(repo)};
  const uint32_t types[3] = {kSectionNames, kSectionDocs, kSectionSummary};

  std::string image;
  image.reserve(kSnapshotHeaderSize + 3 * kSectionEntrySize +
                sections[0].size() + sections[1].size() + sections[2].size() +
                64);
  image.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(image, kSnapshotVersion);
  PutU32(image, 3);  // section_count
  PutU64(image, SeedVocabularyHash());
  PutU64(image, repo.size());
  const size_t crc_at = image.size();
  PutU32(image, 0);  // header_crc, patched below
  PutU32(image, 0);  // reserved

  std::string table;
  uint64_t offset = kSnapshotHeaderSize + 3 * kSectionEntrySize;
  for (int i = 0; i < 3; ++i) {
    PutU32(table, types[i]);
    PutU32(table, 0);
    PutU64(table, offset);
    PutU64(table, sections[i].size());
    PutU32(table, Crc32c(sections[i].data(), sections[i].size()));
    PutU32(table, 0);
    offset += sections[i].size();
  }
  image.append(table);
  for (const std::string& section : sections) image.append(section);

  const uint32_t header_crc =
      Crc32c(table.data(), table.size(), Crc32c(image.data(), 32));
  std::string patched;
  PutU32(patched, header_crc);
  image.replace(crc_at, 4, patched);
  return image;
}

Status WriteSnapshotFile(const std::string& dir, std::string_view image) {
  const std::string tmp_path = dir + "/snapshot.tmp";
  const std::string final_path = dir + "/snapshot.webre";

  MaybeCrash("checkpoint.before_tmp");
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp_path);
  if (CrashPointArmed("checkpoint.tmp.torn")) {
    // Die with only half the image persisted: recovery must ignore the
    // temp file entirely (the rename never happened).
    (void)WriteAllFd(fd, image.substr(0, image.size() / 2), tmp_path);
    (void)::fsync(fd);
    CrashNow();
  }
  Status s = WriteAllFd(fd, image, tmp_path);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  MaybeCrash("checkpoint.before_tmp_sync");
  if (::fsync(fd) != 0) {
    ::close(fd);
    return ErrnoStatus("fsync", tmp_path);
  }
  ::close(fd);
  MaybeCrash("checkpoint.before_rename");
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return ErrnoStatus("rename", tmp_path);
  }
  MaybeCrash("checkpoint.before_dir_sync");
  return SyncDir(dir);
}

Status LoadSnapshotImage(std::string_view image, LoadedSnapshot& out) {
  out = LoadedSnapshot{};
  if (image.size() < kSnapshotHeaderSize) {
    return Status::InvalidArgument("snapshot shorter than its header");
  }
  if (std::memcmp(image.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::InvalidArgument("not a snapshot file (bad magic)");
  }
  ByteReader header(image.substr(sizeof(kSnapshotMagic)));
  uint32_t version = 0, section_count = 0, header_crc = 0, reserved = 0;
  uint64_t seed_hash = 0, doc_count = 0;
  WEBRE_RETURN_IF_ERROR(header.ReadU32(version));
  WEBRE_RETURN_IF_ERROR(header.ReadU32(section_count));
  WEBRE_RETURN_IF_ERROR(header.ReadU64(seed_hash));
  WEBRE_RETURN_IF_ERROR(header.ReadU64(doc_count));
  WEBRE_RETURN_IF_ERROR(header.ReadU32(header_crc));
  WEBRE_RETURN_IF_ERROR(header.ReadU32(reserved));
  if (version != kSnapshotVersion && version != kFormatV1) {
    return Status::FailedPrecondition("unsupported snapshot version " +
                                      std::to_string(version));
  }
  out.version = version;
  if (section_count == 0 || section_count > kMaxSections) {
    return Status::InvalidArgument("implausible snapshot section count");
  }
  const size_t table_bytes = size_t{section_count} * kSectionEntrySize;
  if (image.size() - kSnapshotHeaderSize < table_bytes) {
    return Status::InvalidArgument("snapshot truncated in section table");
  }
  const std::string_view table = image.substr(kSnapshotHeaderSize, table_bytes);
  if (Crc32c(table.data(), table.size(), Crc32c(image.data(), 32)) !=
      header_crc) {
    return Status::InvalidArgument("snapshot header checksum mismatch");
  }
  if (seed_hash != SeedVocabularyHash()) {
    return Status::FailedPrecondition(
        "snapshot written against a different seeded name vocabulary");
  }

  // Locate (and checksum) the three known sections. Unknown types are
  // skipped — a future minor revision may append sections old readers
  // ignore.
  std::string_view names_bytes, docs_bytes, summary_bytes;
  bool have[4] = {false, false, false, false};
  ByteReader table_reader(table);
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t type = 0, pad = 0, crc = 0, pad2 = 0;
    uint64_t offset = 0, size = 0;
    WEBRE_RETURN_IF_ERROR(table_reader.ReadU32(type));
    WEBRE_RETURN_IF_ERROR(table_reader.ReadU32(pad));
    WEBRE_RETURN_IF_ERROR(table_reader.ReadU64(offset));
    WEBRE_RETURN_IF_ERROR(table_reader.ReadU64(size));
    WEBRE_RETURN_IF_ERROR(table_reader.ReadU32(crc));
    WEBRE_RETURN_IF_ERROR(table_reader.ReadU32(pad2));
    if (offset > image.size() || size > image.size() - offset) {
      return Status::InvalidArgument("snapshot section out of bounds");
    }
    if ((offset & 7) != 0) {
      return Status::InvalidArgument("snapshot section misaligned");
    }
    const std::string_view bytes = image.substr(offset, size);
    if (type != kSectionNames && type != kSectionDocs &&
        type != kSectionSummary) {
      continue;
    }
    if (have[type]) {
      return Status::InvalidArgument("duplicate snapshot section");
    }
    have[type] = true;
    if (Crc32c(bytes.data(), bytes.size()) != crc) {
      return Status::InvalidArgument("snapshot section checksum mismatch");
    }
    if (type == kSectionNames) names_bytes = bytes;
    if (type == kSectionDocs) docs_bytes = bytes;
    if (type == kSectionSummary) summary_bytes = bytes;
  }
  if (!have[kSectionNames] || !have[kSectionDocs] || !have[kSectionSummary]) {
    return Status::InvalidArgument("snapshot missing a required section");
  }

  // NAMES: re-intern the writer's table in id order. In a fresh process
  // (the common case) dynamic ids reproduce exactly and documents can
  // be served as views over the mapping.
  {
    ByteReader reader(names_bytes);
    uint64_t name_count = 0;
    WEBRE_RETURN_IF_ERROR(reader.ReadU64(name_count));
    if (name_count > NameTable::kMaxNames) {
      return Status::InvalidArgument("snapshot names exceed table capacity");
    }
    NameTable& names = NameTable::Global();
    out.name_map.reserve(name_count);
    for (uint64_t i = 0; i < name_count; ++i) {
      uint32_t len = 0;
      std::string_view name;
      WEBRE_RETURN_IF_ERROR(reader.ReadU32(len));
      WEBRE_RETURN_IF_ERROR(reader.ReadBytes(len, name));
      if (name.empty()) {
        return Status::InvalidArgument("snapshot contains an empty name");
      }
      NameId new_id;
      try {
        new_id = names.Intern(name);
      } catch (const std::length_error&) {
        return Status::ResourceExhausted("name table full loading snapshot");
      }
      out.identity_names = out.identity_names && new_id == i;
      out.name_map.emplace_back(static_cast<NameId>(i), new_id);
    }
    // Only 8-alignment padding may follow the last name.
    std::string_view tail;
    WEBRE_RETURN_IF_ERROR(reader.ReadBytes(reader.remaining(), tail));
    if (tail.size() >= 8 || tail.find_first_not_of('\0') != tail.npos) {
      return Status::InvalidArgument("trailing bytes in snapshot NAMES");
    }
  }

  // DOCS: validate the table; block bytes stay views into the image.
  {
    ByteReader reader(docs_bytes);
    uint64_t stored_count = 0;
    WEBRE_RETURN_IF_ERROR(reader.ReadU64(stored_count));
    if (stored_count != doc_count) {
      return Status::InvalidArgument("snapshot DOCS count disagrees w/header");
    }
    if (stored_count > docs_bytes.size() / 24) {
      return Status::InvalidArgument("snapshot DOCS table out of bounds");
    }
    const size_t table_end = 8 + stored_count * 24;
    out.documents.reserve(stored_count);
    for (uint64_t i = 0; i < stored_count; ++i) {
      uint64_t block_off = 0, block_bytes = 0;
      uint32_t element_count = 0, pad = 0;
      WEBRE_RETURN_IF_ERROR(reader.ReadU64(block_off));
      WEBRE_RETURN_IF_ERROR(reader.ReadU64(block_bytes));
      WEBRE_RETURN_IF_ERROR(reader.ReadU32(element_count));
      WEBRE_RETURN_IF_ERROR(reader.ReadU32(pad));
      if (block_off < table_end || block_off > docs_bytes.size() ||
          block_bytes > docs_bytes.size() - block_off) {
        return Status::InvalidArgument("snapshot document block out of bounds");
      }
      if ((block_off & 7) != 0) {  // FromMappedBlock needs aligned u32s
        return Status::InvalidArgument("snapshot document block misaligned");
      }
      if (element_count == 0) {
        return Status::InvalidArgument("snapshot document with no elements");
      }
      LoadedDocument doc;
      doc.element_count = element_count;
      doc.block = docs_bytes.substr(block_off, block_bytes);
      out.documents.push_back(doc);
    }
  }

  // SUMMARY: decode entries; semantic validation (ascending docs,
  // in-range occurrences) happens at LoadEntry/RestoreSummaryEntry.
  {
    ByteReader reader(summary_bytes);
    uint64_t entry_count = 0;
    WEBRE_RETURN_IF_ERROR(reader.ReadU64(entry_count));
    if (entry_count > summary_bytes.size() / 24) {
      return Status::InvalidArgument("snapshot SUMMARY out of bounds");
    }
    out.summary.reserve(entry_count);
    for (uint64_t i = 0; i < entry_count; ++i) {
      LoadedSnapshot::SummaryEntry entry;
      uint32_t parent = 0, name = 0;
      uint64_t n_docs = 0, n_occs = 0;
      WEBRE_RETURN_IF_ERROR(reader.ReadU32(parent));
      WEBRE_RETURN_IF_ERROR(reader.ReadU32(name));
      WEBRE_RETURN_IF_ERROR(reader.ReadU64(n_docs));
      WEBRE_RETURN_IF_ERROR(reader.ReadU64(n_occs));
      if (n_docs > reader.remaining() / 8) {
        return Status::InvalidArgument("snapshot summary docs out of bounds");
      }
      entry.parent = parent;
      entry.name = static_cast<NameId>(name);
      entry.docs.reserve(n_docs);
      for (uint64_t d = 0; d < n_docs; ++d) {
        uint64_t doc = 0;
        WEBRE_RETURN_IF_ERROR(reader.ReadU64(doc));
        entry.docs.push_back(static_cast<DocId>(doc));
      }
      if (n_occs > reader.remaining() / 16) {
        return Status::InvalidArgument("snapshot summary occs out of bounds");
      }
      entry.occurrences.reserve(n_occs);
      for (uint64_t o = 0; o < n_occs; ++o) {
        uint64_t doc = 0;
        uint32_t pos = 0, pad = 0;
        WEBRE_RETURN_IF_ERROR(reader.ReadU64(doc));
        WEBRE_RETURN_IF_ERROR(reader.ReadU32(pos));
        WEBRE_RETURN_IF_ERROR(reader.ReadU32(pad));
        entry.occurrences.emplace_back(static_cast<DocId>(doc), pos);
      }
      out.summary.push_back(std::move(entry));
    }
  }
  return Status::Ok();
}

}  // namespace storage
}  // namespace webre
