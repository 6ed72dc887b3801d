#include "repository/path_index.h"

#include <algorithm>
#include <unordered_map>

namespace webre {

LocalDocumentPaths CollectLocalPaths(const FlatDoc& doc) {
  LocalDocumentPaths out;
  const uint32_t count = doc.element_count();
  if (count == 0) return out;
  out.element_count = count;

  std::unordered_map<uint64_t, uint32_t> dense;
  dense.reserve(64);
  auto resolve = [&](uint32_t parent, NameId name) -> uint32_t {
    const uint64_t key = (static_cast<uint64_t>(parent) << 32) | name;
    auto [it, inserted] =
        dense.emplace(key, static_cast<uint32_t>(out.paths.size()));
    if (inserted) {
      LocalDocumentPaths::Path path;
      path.parent = parent;
      path.name = name;
      out.paths.push_back(std::move(path));
    }
    return it->second;
  };

  // Pre-order indices ARE the flat indices, and parents precede their
  // children, so one linear pass resolves every element's path from
  // its parent's already-resolved path.
  std::vector<uint32_t> elem_path(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t parent = doc.parent(i);
    const uint32_t parent_path = parent == FlatDoc::kNoParent
                                     ? LocalDocumentPaths::kNoParent
                                     : elem_path[parent];
    const uint32_t path = resolve(parent_path, doc.name(i));
    elem_path[i] = path;
    out.paths[path].occurrences.push_back(i);
  }
  return out;
}

namespace {

/// Sorted-unique insertion, optimized for the common in-order arrival
/// (append). Concurrent Adds can complete out of id order, so the
/// general case falls back to a binary search.
void InsertSorted(std::vector<DocId>& docs, DocId doc) {
  if (docs.empty() || docs.back() < doc) {
    docs.push_back(doc);
    return;
  }
  if (docs.back() == doc) return;
  auto it = std::lower_bound(docs.begin(), docs.end(), doc);
  if (it == docs.end() || *it != doc) docs.insert(it, doc);
}

}  // namespace

uint64_t PathIndex::Mix(uint64_t key) {
  // splitmix64 finalizer: full-width avalanche of the packed pair.
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ull;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebull;
  key ^= key >> 31;
  return key;
}

void PathIndex::Rehash(size_t new_slots) {
  std::vector<uint64_t> old_keys = std::move(keys_);
  std::vector<uint32_t> old_values = std::move(values_);
  keys_.assign(new_slots, kEmptySlot);
  values_.assign(new_slots, 0);
  mask_ = new_slots - 1;
  for (size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == kEmptySlot) continue;
    size_t slot = Mix(old_keys[i]) & mask_;
    while (keys_[slot] != kEmptySlot) slot = (slot + 1) & mask_;
    keys_[slot] = old_keys[i];
    values_[slot] = old_values[i];
  }
}

uint32_t PathIndex::Resolve(uint32_t parent, NameId name) {
  if (keys_.empty()) Rehash(kInitialSlots);
  const uint64_t key = (static_cast<uint64_t>(parent) << 32) | name;
  size_t slot = Mix(key) & mask_;
  while (true) {
    if (keys_[slot] == key) return values_[slot];
    if (keys_[slot] == kEmptySlot) break;
    slot = (slot + 1) & mask_;
  }
  const uint32_t id = static_cast<uint32_t>(entries_.size());
  Entry entry;
  entry.parent = parent;
  entry.name = name;
  entries_.push_back(std::move(entry));
  if (parent == kNoPath) {
    roots_.push_back(id);
  } else {
    entries_[parent].children.push_back(id);
  }
  keys_[slot] = key;
  values_[slot] = id;
  if (++used_ * 4 > keys_.size() * 3) Rehash(keys_.size() * 2);
  return id;
}

uint32_t PathIndex::Lookup(uint32_t parent, NameId name) const {
  if (keys_.empty()) return kNoPath;
  const uint64_t key = (static_cast<uint64_t>(parent) << 32) | name;
  size_t slot = Mix(key) & mask_;
  while (true) {
    if (keys_[slot] == key) return values_[slot];
    if (keys_[slot] == kEmptySlot) return kNoPath;
    slot = (slot + 1) & mask_;
  }
}

void PathIndex::AddDocument(const LocalDocumentPaths& local, DocId doc,
                            const FlatDoc& flat) {
  // Parents precede children in `local.paths`, so each local path's
  // global id resolves from its parent's already-resolved id.
  std::vector<uint32_t> global(local.paths.size());
  std::string values;  // the document's slice of one column
  for (size_t i = 0; i < local.paths.size(); ++i) {
    const LocalDocumentPaths::Path& path = local.paths[i];
    const uint32_t parent = path.parent == LocalDocumentPaths::kNoParent
                                ? kNoPath
                                : global[path.parent];
    const uint32_t id = Resolve(parent, path.name);
    global[i] = id;
    Entry& entry = entries_[id];
    InsertSorted(entry.docs, doc);

    // The document's occurrences form one contiguous (doc, pos…) run;
    // splice it at the doc's sorted position (plain append when ids
    // arrive in order), and its values into the column at the same
    // place.
    auto at = std::lower_bound(
        entry.occurrences.begin(), entry.occurrences.end(), doc,
        [](const PathOccurrence& o, DocId d) { return o.doc < d; });
    const size_t offset = static_cast<size_t>(at - entry.occurrences.begin());
    const size_t n = path.occurrences.size();
    entry.occurrences.insert(at, n, PathOccurrence{});
    const uint64_t start = entry.column_off[offset];
    entry.column_off.insert(entry.column_off.begin() + offset + 1, n, 0);
    values.clear();
    for (size_t k = 0; k < n; ++k) {
      const uint32_t pos = path.occurrences[k];
      entry.occurrences[offset + k] = PathOccurrence{doc, pos, &flat};
      values.append(flat.val(pos));
      entry.column_off[offset + 1 + k] = start + values.size();
    }
    entry.column.insert(start, values);
    // A mid-run splice shifts every later value.
    for (size_t k = offset + n + 1; k < entry.column_off.size(); ++k) {
      entry.column_off[k] += values.size();
    }
  }
}

Status PathIndex::LoadEntry(uint32_t parent, NameId name,
                            std::vector<DocId> docs,
                            std::vector<PathOccurrence> occurrences) {
  if (parent != kNoPath && parent >= entries_.size()) {
    return Status::InvalidArgument("path index load: parent out of range");
  }
  if (name == kInvalidNameId) {
    return Status::InvalidArgument("path index load: invalid name");
  }
  for (size_t i = 1; i < docs.size(); ++i) {
    if (docs[i - 1] >= docs[i]) {
      return Status::InvalidArgument("path index load: docs not sorted");
    }
  }
  for (size_t i = 0; i < occurrences.size(); ++i) {
    const PathOccurrence& occ = occurrences[i];
    if (!std::binary_search(docs.begin(), docs.end(), occ.doc)) {
      return Status::InvalidArgument(
          "path index load: occurrence doc not in posting list");
    }
    if (i > 0) {
      const PathOccurrence& prev = occurrences[i - 1];
      if (prev.doc > occ.doc ||
          (prev.doc == occ.doc && prev.pos >= occ.pos)) {
        return Status::InvalidArgument(
            "path index load: occurrences not sorted");
      }
    }
  }
  // The value column is sized exactly: one pass measures, the second
  // fills.
  size_t bytes = 0;
  for (const PathOccurrence& occ : occurrences) {
    bytes += occ.flat->val(occ.pos).size();
  }
  const uint32_t expected = static_cast<uint32_t>(entries_.size());
  if (Resolve(parent, name) != expected) {
    // Resolve returned an existing id: two stored entries share one
    // (parent, name) pair, which a well-formed snapshot never has.
    return Status::InvalidArgument("path index load: duplicate path entry");
  }
  Entry& entry = entries_[expected];
  entry.docs = std::move(docs);
  entry.occurrences = std::move(occurrences);
  entry.column.reserve(bytes);
  entry.column_off.reserve(entry.occurrences.size() + 1);
  for (const PathOccurrence& occ : entry.occurrences) {
    entry.column.append(occ.flat->val(occ.pos));
    entry.column_off.push_back(entry.column.size());
  }
  return Status::Ok();
}

uint32_t PathIndex::FindPath(const NameId* labels, size_t count) const {
  if (count == 0) return kNoPath;
  uint32_t cur = kNoPath;
  for (size_t i = 0; i < count; ++i) {
    cur = Lookup(cur, labels[i]);
    if (cur == kNoPath) return kNoPath;
  }
  return cur;
}

const std::vector<DocId>& PathIndex::EmptyDocs() {
  static const std::vector<DocId> kEmpty;
  return kEmpty;
}

}  // namespace webre
