// Unit tests for the durable-storage building blocks: CRC32C, atomic
// file replacement, FlatDoc block (de)serialization, the WAL codec and
// the snapshot format — including the rejection paths a corrupt or
// incompatible file must take (DESIGN.md §14).

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "repository/repository.h"
#include "schema/path_extractor.h"
#include "storage/crc32c.h"
#include "storage/durable_repository.h"
#include "storage/format.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/file.h"
#include "util/rng.h"
#include "util/strings.h"
#include "xml/flat_doc.h"
#include "xml/name_table.h"
#include "xml/node.h"

namespace webre {
namespace storage {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// A small document over seeded concept names plus vals (so WAL records
// and snapshots carry non-trivial text pools).
std::unique_ptr<Node> MakeDoc(size_t index) {
  Rng rng(0x51237fu + index);
  std::unique_ptr<Node> root = Node::MakeElement("resume");
  Node* contact = root->AddElement("CONTACT");
  contact->AddElement("LOCATION")->set_val(
      "city-" + std::to_string(rng.NextBelow(50)));
  contact->AddElement("PHONE")->set_val("555-" +
                                        std::to_string(rng.NextBelow(9999)));
  Node* education = root->AddElement("EDUCATION");
  const size_t degrees = 1 + rng.NextBelow(3);
  for (size_t d = 0; d < degrees; ++d) {
    Node* date = education->AddElement("DATE");
    date->set_val(std::to_string(1985 + rng.NextBelow(18)));
    date->AddElement("DEGREE")->set_val("BS");
  }
  root->AddElement("SKILLS")->AddElement("LANGUAGE")->set_val("Java");
  return root;
}

TEST(Crc32c, KnownAnswerAndChaining) {
  // The canonical CRC-32C check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);

  // Chaining through the seed equals one shot over the concatenation.
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32c(data.data() + split, data.size() - split,
                     Crc32c(data.data(), split)),
              whole);
  }
}

TEST(WriteFileAtomic, CreatesAndReplaces) {
  const std::string path = TempPath("atomic_test.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  EXPECT_EQ(ReadFile(path).value(), "first");
  ASSERT_TRUE(WriteFileAtomic(path, "second, longer contents").ok());
  EXPECT_EQ(ReadFile(path).value(), "second, longer contents");
}

TEST(FlatDocBlock, OwnedRoundtrip) {
  const std::unique_ptr<Node> tree = MakeDoc(1);
  const std::unique_ptr<FlatDoc> original = FlatDoc::Freeze(*tree);

  auto copy = std::make_unique<char[]>(original->block_bytes());
  std::memcpy(copy.get(), original->block_data(), original->block_bytes());
  auto restored = FlatDoc::FromOwnedBlock(
      std::move(copy), original->block_bytes(), original->element_count(),
      static_cast<NameId>(NameTable::Global().size()));
  ASSERT_TRUE(restored.ok()) << restored.status();
  const FlatDoc& doc = **restored;
  EXPECT_FALSE(doc.is_view());
  ASSERT_EQ(doc.element_count(), original->element_count());
  for (uint32_t i = 0; i < doc.element_count(); ++i) {
    EXPECT_EQ(doc.name(i), original->name(i));
    EXPECT_EQ(doc.parent(i), original->parent(i));
    EXPECT_EQ(doc.subtree_end(i), original->subtree_end(i));
    EXPECT_EQ(doc.val(i), original->val(i));
  }
}

TEST(FlatDocBlock, MappedViewRoundtrip) {
  const std::unique_ptr<Node> tree = MakeDoc(2);
  const std::unique_ptr<FlatDoc> original = FlatDoc::Freeze(*tree);

  auto view = FlatDoc::FromMappedBlock(
      original->block_data(), original->block_bytes(),
      original->element_count(),
      static_cast<NameId>(NameTable::Global().size()));
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_TRUE((*view)->is_view());
  EXPECT_EQ((*view)->val(0), original->val(0));
  EXPECT_EQ((*view)->block_data(), original->block_data());  // zero copy
}

TEST(FlatDocBlock, RejectsStructuralCorruption) {
  const std::unique_ptr<Node> tree = MakeDoc(3);
  const std::unique_ptr<FlatDoc> original = FlatDoc::Freeze(*tree);
  const uint32_t count = original->element_count();
  const NameId limit = static_cast<NameId>(NameTable::Global().size());
  ASSERT_GE(count, 4u);

  auto corrupt_u32 = [&](size_t index, uint32_t value) {
    auto block = std::make_unique<char[]>(original->block_bytes());
    std::memcpy(block.get(), original->block_data(),
                original->block_bytes());
    std::memcpy(block.get() + index * 4, &value, 4);
    return FlatDoc::FromOwnedBlock(std::move(block),
                                   original->block_bytes(), count, limit);
  };

  // Name beyond the table.
  EXPECT_EQ(corrupt_u32(0, limit).status().code(),
            StatusCode::kInvalidArgument);
  // Parent link not strictly backward (parents[2] = 2).
  EXPECT_EQ(corrupt_u32(count + 2, 2).status().code(),
            StatusCode::kInvalidArgument);
  // Root's subtree_end not covering the document (v2 layout: names,
  // parents, subtree_end, text_off).
  EXPECT_EQ(corrupt_u32(2 * count + 0, count - 1).status().code(),
            StatusCode::kInvalidArgument);
  // Text offsets non-monotonic / out of range.
  EXPECT_EQ(corrupt_u32(3 * count + 1, 0xFFFFFFF0u).status().code(),
            StatusCode::kInvalidArgument);

  // Truncated block.
  auto short_block = std::make_unique<char[]>(16);
  std::memcpy(short_block.get(), original->block_data(), 16);
  EXPECT_EQ(FlatDoc::FromOwnedBlock(std::move(short_block), 16, count, limit)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ExtractPathsFlat, MatchesTreeExtraction) {
  for (size_t i = 0; i < 16; ++i) {
    const std::unique_ptr<Node> tree = MakeDoc(100 + i);
    const std::unique_ptr<FlatDoc> flat = FlatDoc::Freeze(*tree);
    const DocumentPaths from_tree = ExtractPaths(*tree);
    const DocumentPaths from_flat = ExtractPaths(*flat);
    EXPECT_EQ(from_flat.max_multiplicity, from_tree.max_multiplicity);
    EXPECT_EQ(from_flat.position_sum, from_tree.position_sum);
    EXPECT_EQ(from_flat.position_count, from_tree.position_count);
    EXPECT_EQ(from_flat.parent_index, from_tree.parent_index);
    EXPECT_EQ(from_flat.leaf_name, from_tree.leaf_name);
  }
}

// The v1 form of `flat`'s block: a depth array after the parents and
// an ASCII-lowered copy of the text pool at the end.
std::string V1Block(const FlatDoc& flat) {
  const uint32_t count = flat.element_count();
  const char* v2 = flat.block_data();
  std::string out(v2, size_t{8} * count);  // names, parents
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t depth = 0;
    for (uint32_t p = flat.parent(i); p != FlatDoc::kNoParent;
         p = flat.parent(p)) {
      ++depth;
    }
    out.append(reinterpret_cast<const char*>(&depth), 4);
  }
  const size_t tail = size_t{4} * (2 * count + 1);  // subtree_end, text_off
  out.append(v2 + size_t{8} * count, tail);
  const std::string_view text = flat.text_pool();
  out.append(text);
  for (char c : text) out.push_back(AsciiToLower(c));
  return out;
}

TEST(LoadBlockCopy, CopiesV2AndUpgradesV1) {
  const std::unique_ptr<FlatDoc> original = FlatDoc::Freeze(*MakeDoc(11));
  const NameId limit = static_cast<NameId>(NameTable::Global().size());
  const std::string_view v2(original->block_data(), original->block_bytes());
  const std::string v1 = V1Block(*original);
  ASSERT_EQ(v1.size(), v2.size() + 4 * original->element_count() +
                           original->text_pool().size());

  for (const auto& [stored, version] :
       {std::pair<std::string_view, uint32_t>{v2, kFormatVersion},
        std::pair<std::string_view, uint32_t>{v1, kFormatV1}}) {
    auto loaded = LoadBlockCopy(stored, original->element_count(), version,
                                nullptr, limit);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_FALSE((*loaded)->is_view());
    ASSERT_EQ((*loaded)->block_bytes(), original->block_bytes());
    EXPECT_EQ(std::memcmp((*loaded)->block_data(), original->block_data(),
                          original->block_bytes()),
              0)
        << "version " << version;
  }
}

TEST(LoadBlockCopy, RejectsBadV1SizesUnknownVersionsAndUnmappedNames) {
  const std::unique_ptr<FlatDoc> original = FlatDoc::Freeze(*MakeDoc(12));
  const uint32_t count = original->element_count();
  const NameId limit = static_cast<NameId>(NameTable::Global().size());
  const std::string v1 = V1Block(*original);

  // The two v1 pools must be equally long, and the integer arrays whole.
  EXPECT_EQ(LoadBlockCopy(v1 + "x", count, kFormatV1, nullptr, limit)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadBlockCopy(std::string_view(v1).substr(0, 4 * count), count,
                          kFormatV1, nullptr, limit)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A v2 block read as v1 (or vice versa) fails validation.
  const std::string_view v2(original->block_data(), original->block_bytes());
  EXPECT_FALSE(LoadBlockCopy(v2, count, kFormatV1, nullptr, limit).ok());
  EXPECT_FALSE(LoadBlockCopy(v1, count, kFormatVersion, nullptr, limit).ok());
  EXPECT_EQ(LoadBlockCopy(v2, count, 7, nullptr, limit).status().code(),
            StatusCode::kInvalidArgument);

  // A remap must cover every NameId the block uses; one that does
  // rewrites them all.
  NameRemap remap;
  for (uint32_t i = 0; i < count; ++i) {
    remap.emplace_back(original->name(i), original->name(i));
  }
  std::sort(remap.begin(), remap.end());
  remap.erase(std::unique(remap.begin(), remap.end()), remap.end());
  auto remapped = LoadBlockCopy(v1, count, kFormatV1, &remap, limit);
  ASSERT_TRUE(remapped.ok()) << remapped.status();
  EXPECT_EQ((*remapped)->name(count - 1), original->name(count - 1));
  remap.pop_back();
  EXPECT_EQ(LoadBlockCopy(v1, count, kFormatV1, &remap, limit).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WalCodec, HeaderRoundtripAndGuards) {
  const uint64_t seed = SeedVocabularyHash();
  const std::string header = EncodeWalHeader(seed);
  ASSERT_EQ(header.size(), kWalHeaderSize);
  EXPECT_TRUE(CheckWalHeader(header, seed).ok());

  // Wrong NameTable generation.
  EXPECT_EQ(CheckWalHeader(header, seed ^ 1).code(),
            StatusCode::kFailedPrecondition);
  // Wrong version.
  std::string wrong_version = header;
  wrong_version[8] = 9;
  EXPECT_EQ(CheckWalHeader(wrong_version, seed).code(),
            StatusCode::kFailedPrecondition);
  // Torn header.
  EXPECT_EQ(CheckWalHeader(std::string_view(header).substr(0, 10), seed)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(WalCodec, RecordRoundtrip) {
  const std::unique_ptr<FlatDoc> flat = FlatDoc::Freeze(*MakeDoc(4));
  std::string payload = EncodeWalRecord(7, *flat);
  payload += EncodeWalRecord(8, *flat);

  std::vector<WalRecord> records;
  EXPECT_EQ(ParseWalPayload(payload, records), payload.size());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].doc_id, 7u);
  EXPECT_EQ(records[1].doc_id, 8u);
  EXPECT_EQ(records[0].element_count, flat->element_count());

  auto decoded = DecodeWalDocument(records[0]);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ((*decoded)->element_count(), flat->element_count());
  for (uint32_t i = 0; i < flat->element_count(); ++i) {
    EXPECT_EQ((*decoded)->name(i), flat->name(i));
    EXPECT_EQ((*decoded)->val(i), flat->val(i));
  }
}

TEST(WalCodec, TornTailEndsValidPrefix) {
  const std::unique_ptr<FlatDoc> flat = FlatDoc::Freeze(*MakeDoc(5));
  const std::string first = EncodeWalRecord(0, *flat);
  const std::string second = EncodeWalRecord(1, *flat);

  // Chop the second record at assorted torn lengths: the first record
  // must always survive, the second never.
  for (size_t keep : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                      second.size() / 2, second.size() - 1}) {
    const std::string payload = first + second.substr(0, keep);
    std::vector<WalRecord> records;
    EXPECT_EQ(ParseWalPayload(payload, records), first.size());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].doc_id, 0u);
  }
}

TEST(WalCodec, BitFlipEndsValidPrefix) {
  const std::unique_ptr<FlatDoc> flat = FlatDoc::Freeze(*MakeDoc(6));
  const std::string first = EncodeWalRecord(0, *flat);
  const std::string second = EncodeWalRecord(1, *flat);

  // Flip one bit somewhere in the second record: every byte is covered
  // by the frame's CRC (or the framing itself), so exactly the first
  // record survives.
  for (size_t byte : {size_t{0}, size_t{4}, size_t{8}, second.size() / 2,
                      second.size() - 1}) {
    std::string payload = first + second;
    payload[first.size() + byte] ^= 0x10;
    std::vector<WalRecord> records;
    ParseWalPayload(payload, records);
    ASSERT_EQ(records.size(), 1u) << "flipped byte " << byte;
    EXPECT_EQ(records[0].doc_id, 0u);
  }
}

TEST(Snapshot, RoundtripIdentity) {
  RepositoryOptions options;
  options.num_shards = 2;
  XmlRepository repo(options);
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(repo.Add(MakeDoc(200 + i)).ok());
  }
  const std::string image = BuildSnapshotImage(repo);

  LoadedSnapshot loaded;
  ASSERT_TRUE(LoadSnapshotImage(image, loaded).ok());
  // Same process: every name re-interns to its own id.
  EXPECT_TRUE(loaded.identity_names);
  ASSERT_EQ(loaded.documents.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    const FlatDoc* original = repo.flat_document(static_cast<DocId>(i));
    ASSERT_NE(original, nullptr);
    EXPECT_EQ(loaded.documents[i].element_count, original->element_count());
    EXPECT_EQ(loaded.documents[i].block,
              std::string_view(original->block_data(),
                               original->block_bytes()));
  }
  repo.WithSummary([&](const PathIndex& summary) {
    EXPECT_EQ(loaded.summary.size(), summary.path_count());
  });
}

// Builds a 3-section snapshot image from a couple of documents.
std::string BuildImage(size_t docs) {
  RepositoryOptions options;
  options.num_shards = 2;
  XmlRepository repo(options);
  for (size_t i = 0; i < docs; ++i) {
    EXPECT_TRUE(repo.Add(MakeDoc(200 + i)).ok());
  }
  return BuildSnapshotImage(repo);
}

// Recomputes the header CRC after a deliberate header edit, exactly the
// way the writer computes it, so ONLY the edited field is wrong.
void ResealHeader(std::string& image) {
  uint32_t section_count = 0;
  std::memcpy(&section_count, image.data() + 12, 4);
  const uint32_t crc =
      Crc32c(image.data() + kSnapshotHeaderSize, section_count * 32,
             Crc32c(image.data(), 32));
  std::memcpy(image.data() + 32, &crc, 4);
}

TEST(Snapshot, RejectsWrongVersion) {
  std::string image = BuildImage(2);
  const uint32_t bogus = 99;
  std::memcpy(image.data() + 8, &bogus, 4);
  ResealHeader(image);

  LoadedSnapshot loaded;
  EXPECT_EQ(LoadSnapshotImage(image, loaded).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Snapshot, RejectsWrongSeedGeneration) {
  std::string image = BuildImage(2);
  image[16] ^= 0x5A;  // seed_hash low byte
  ResealHeader(image);

  LoadedSnapshot loaded;
  EXPECT_EQ(LoadSnapshotImage(image, loaded).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Snapshot, RejectsCorruptionWithoutCrashing) {
  const std::string image = BuildImage(3);

  LoadedSnapshot loaded;
  // Bad magic.
  std::string bad = image;
  bad[0] ^= 0xFF;
  EXPECT_EQ(LoadSnapshotImage(bad, loaded).code(),
            StatusCode::kInvalidArgument);
  // Header CRC catches a flipped section-table byte.
  bad = image;
  bad[kSnapshotHeaderSize + 9] ^= 0x01;
  EXPECT_EQ(LoadSnapshotImage(bad, loaded).code(),
            StatusCode::kInvalidArgument);
  // A section CRC catches a flipped payload byte.
  bad = image;
  bad[bad.size() - 3] ^= 0x40;
  EXPECT_EQ(LoadSnapshotImage(bad, loaded).code(),
            StatusCode::kInvalidArgument);
  // Truncations never read out of bounds or load.
  for (size_t len = 0; len < kSnapshotHeaderSize + 64 && len < image.size();
       ++len) {
    EXPECT_FALSE(LoadSnapshotImage(image.substr(0, len), loaded).ok());
  }
}

TEST(Snapshot, NameSwapForcesRemap) {
  // Two same-length dynamic names the seeded vocabulary cannot contain.
  std::unique_ptr<Node> root = Node::MakeElement("resume");
  root->AddElement("zzalpha")->set_val("first");
  root->AddElement("zzbeta!")->set_val("second");

  RepositoryOptions options;
  options.num_shards = 1;
  XmlRepository repo(options);
  ASSERT_TRUE(repo.Add(std::move(root)).ok());
  std::string image = BuildSnapshotImage(repo);

  // Byte-edit the NAMES section: swap the two names' string bytes, so
  // the snapshot claims the stored ids mean the opposite strings, then
  // reseal the section and header CRCs — only the semantics changed.
  const size_t alpha_at = image.find("zzalpha");
  const size_t beta_at = image.find("zzbeta!");
  ASSERT_NE(alpha_at, std::string::npos);
  ASSERT_NE(beta_at, std::string::npos);
  image.replace(alpha_at, 7, "zzbeta!");
  image.replace(beta_at, 7, "zzalpha");
  {
    const char* entry = image.data() + kSnapshotHeaderSize;
    uint32_t type = 0;
    std::memcpy(&type, entry, 4);
    ASSERT_EQ(type, kSectionNames);  // NAMES is the first section
    uint64_t off64 = 0, size64 = 0;
    std::memcpy(&off64, entry + 8, 8);
    std::memcpy(&size64, entry + 16, 8);
    const uint32_t crc = Crc32c(image.data() + off64,
                                static_cast<size_t>(size64));
    std::memcpy(image.data() + kSnapshotHeaderSize + 24, &crc, 4);
  }
  ResealHeader(image);

  // Loading in this process (both names already interned in the
  // original order) must detect non-identity...
  LoadedSnapshot loaded;
  ASSERT_TRUE(LoadSnapshotImage(image, loaded).ok());
  EXPECT_FALSE(loaded.identity_names);

  // ...and a full durable open must serve the swapped semantics via
  // the copy-and-remap path: zero mmap hits, names resolved per the
  // edited NAMES table.
  const std::string dir = TempPath("remap_dir");
  ::mkdir(dir.c_str(), 0755);
  ASSERT_TRUE(WriteSnapshotFile(dir, image).ok());

  auto durable = DurableRepository::Open(dir);
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_EQ((*durable)->stats().mmap_hits, 0u);
  const FlatDoc* doc = (*durable)->repo().flat_document(0);
  ASSERT_NE(doc, nullptr);
  ASSERT_EQ(doc->element_count(), 3u);
  // Element 1 stored the id interned for "zzalpha"; the edited snapshot
  // says that id means "zzbeta!", so the restored document reads back
  // swapped — and the vals stay with their positions.
  EXPECT_EQ(doc->name_view(1), "zzbeta!");
  EXPECT_EQ(doc->name_view(2), "zzalpha");
  EXPECT_EQ(doc->val(1), "first");
  EXPECT_EQ(doc->val(2), "second");
}

TEST(DurableRepositoryTest, StatsAndWalSyncModes) {
  for (const WalSyncMode mode :
       {WalSyncMode::kNone, WalSyncMode::kFdatasync}) {
    const std::string dir = TempPath(
        mode == WalSyncMode::kNone ? "sync_none" : "sync_fdatasync");
    DurableOptions options;
    options.repository.num_shards = 2;
    options.wal_sync = mode;
    auto durable = DurableRepository::Open(dir, options);
    ASSERT_TRUE(durable.ok()) << durable.status();
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE((*durable)->Add(MakeDoc(300 + i)).ok());
    }
    const obs::StorageStatsView stats = (*durable)->stats();
    EXPECT_EQ(stats.wal_appends, 4u);
    EXPECT_EQ(stats.wal_replayed, 0u);
    ASSERT_TRUE((*durable)->Checkpoint().ok());
    EXPECT_GT((*durable)->stats().snapshot_bytes, 0u);
  }
}

}  // namespace
}  // namespace storage
}  // namespace webre
