// Fuzz target: the durable-storage readers. Any byte string fed to the
// snapshot loader and the WAL reader must come back as a Status —
// kInvalidArgument for structural corruption, kFailedPrecondition for a
// wrong version/generation, kResourceExhausted if garbage floods the
// NameTable — never a crash, hang, or out-of-bounds read. Documents a
// load does accept must then survive full FlatDoc structural
// validation: corrupt bytes may be rejected, but never half-accepted.
//
// The seed corpus (corpus/snapshot) holds real checkpoints' snapshot
// and WAL files in the current format and in format v1, so mutations
// explore the format's interior — the v1 upgrade included — not just
// its magic check.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "storage/format.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/status.h"
#include "xml/flat_doc.h"
#include "xml/name_table.h"

namespace {

bool AcceptableStatus(const webre::Status& status) {
  return status.ok() ||
         status.code() == webre::StatusCode::kInvalidArgument ||
         status.code() == webre::StatusCode::kFailedPrecondition ||
         status.code() == webre::StatusCode::kResourceExhausted;
}

// Loads an accepted document block through the storage layer's copying
// loader (the v1 upgrade and FlatDoc validation included) — a loader
// that admits a block the validator rejects (or vice versa crashes on)
// is a bug either way.
void ExerciseBlock(std::string_view block, uint32_t element_count,
                   uint32_t version) {
  auto doc = webre::storage::LoadBlockCopy(
      block, element_count, version, nullptr,
      static_cast<webre::NameId>(webre::NameTable::Global().size()));
  if (doc.ok()) {
    // Touch every element: any accepted block must be fully readable.
    const webre::FlatDoc& d = **doc;
    size_t text_bytes = 0;
    for (uint32_t i = 0; i < d.element_count(); ++i) {
      text_bytes += d.val(i).size();
      (void)d.subtree_end(i);
    }
    (void)text_bytes;
  } else if (!AcceptableStatus(doc.status())) {
    abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  // 1. The input as a snapshot image.
  webre::storage::LoadedSnapshot loaded;
  const webre::Status snap = webre::storage::LoadSnapshotImage(bytes, loaded);
  if (!AcceptableStatus(snap)) abort();
  if (snap.ok()) {
    for (const webre::storage::LoadedDocument& doc : loaded.documents) {
      ExerciseBlock(doc.block, doc.element_count, loaded.version);
    }
  }

  // 2. The input as a WAL file: header check, then the valid-prefix
  // scan and per-record document decode.
  uint32_t version = 0;
  const webre::Status header = webre::storage::CheckWalHeader(
      bytes, webre::storage::SeedVocabularyHash(), &version);
  if (!AcceptableStatus(header)) abort();
  if (header.ok()) {
    std::vector<webre::storage::WalRecord> records;
    const size_t prefix = webre::storage::ParseWalPayload(
        bytes.substr(webre::storage::kWalHeaderSize), records, version);
    if (prefix > size - webre::storage::kWalHeaderSize) abort();
    for (const webre::storage::WalRecord& record : records) {
      auto doc = webre::storage::DecodeWalDocument(record);
      if (!doc.ok() && !AcceptableStatus(doc.status())) abort();
    }
  }
  return 0;
}
