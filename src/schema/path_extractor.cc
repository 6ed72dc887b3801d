#include "schema/path_extractor.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace webre {
namespace {

/// Dense per-document path table. A label path is identified during the
/// walk by a 32-bit dense index; a child path is resolved from its
/// parent's index and the child's interned name with one probe into an
/// open-addressing table keyed by the packed (parent, name) pair — no
/// string is joined or hashed anywhere, and the only allocations are
/// the table's geometric growth.
class PathTable {
 public:
  static constexpr uint32_t kNoParent = 0xFFFFFFFFu;

  struct Entry {
    uint32_t parent;  // dense index of the parent path, kNoParent for root
    NameId name;      // leaf label
    size_t max_multiplicity = 0;
    double position_sum = 0.0;
    size_t position_count = 0;
    bool emitted = false;  // already appended to the pre-order path list
  };

  PathTable() { Rehash(kInitialSlots); }

  /// Dense index of the path `parent_index / name`, creating it if new.
  uint32_t Resolve(uint32_t parent_index, NameId name) {
    const uint64_t key =
        (static_cast<uint64_t>(parent_index) << 32) | name;
    size_t slot = Mix(key) & mask_;
    while (true) {
      if (keys_[slot] == key) return values_[slot];
      if (keys_[slot] == kEmptySlot) break;
      slot = (slot + 1) & mask_;
    }
    const uint32_t index = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{parent_index, name});
    keys_[slot] = key;
    values_[slot] = index;
    if (++used_ * 4 > keys_.size() * 3) Rehash(keys_.size() * 2);
    return index;
  }

  Entry& entry(uint32_t i) { return entries_[i]; }

  /// Records `i` as the next distinct path in document pre-order; no-op
  /// if the path was already seen (the dedup the paper requires, §3.2).
  void Emit(uint32_t i) {
    if (entries_[i].emitted) return;
    entries_[i].emitted = true;
    emit_order_.push_back(i);
  }

  /// Scratch for Walk's per-node sibling counting. Owned here so the
  /// whole recursive walk reuses one buffer: each frame finishes with
  /// the counts before recursing into any child.
  std::vector<std::pair<NameId, size_t>>& sibling_scratch() {
    return sibling_scratch_;
  }

  /// Fills the public DocumentPaths (parent links, leaf names and the
  /// parallel statistics, in emit order) from the dense table.
  void Materialize(DocumentPaths& out) const {
    out.max_multiplicity.reserve(emit_order_.size());
    out.position_sum.reserve(emit_order_.size());
    out.position_count.reserve(emit_order_.size());
    out.parent_index.reserve(emit_order_.size());
    out.leaf_name.reserve(emit_order_.size());
    // Dense table index -> emit position, so parent_index can point into
    // the emitted (pre-order) vectors. Pre-order guarantees every parent
    // was emitted before its children.
    std::vector<uint32_t> dense_to_emit(entries_.size(),
                                        DocumentPaths::kNoParentPath);
    for (size_t k = 0; k < emit_order_.size(); ++k) {
      dense_to_emit[emit_order_[k]] = static_cast<uint32_t>(k);
    }
    for (uint32_t i : emit_order_) {
      const Entry& e = entries_[i];
      out.parent_index.push_back(e.parent == kNoParent
                                     ? DocumentPaths::kNoParentPath
                                     : dense_to_emit[e.parent]);
      out.leaf_name.push_back(e.name);
      out.max_multiplicity.push_back(e.max_multiplicity);
      out.position_sum.push_back(e.position_sum);
      out.position_count.push_back(e.position_count);
    }
  }

 private:
  // (kNoParent, kInvalidNameId) can never be resolved — text nodes have
  // no path — so the all-ones key doubles as the empty-slot marker.
  static constexpr uint64_t kEmptySlot = 0xFFFFFFFFFFFFFFFFull;
  static constexpr size_t kInitialSlots = 128;  // power of two

  static uint64_t Mix(uint64_t key) {
    // splitmix64 finalizer: full-width avalanche of the packed pair.
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ull;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebull;
    key ^= key >> 31;
    return key;
  }

  void Rehash(size_t new_slots) {
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

  std::vector<Entry> entries_;
  std::vector<uint32_t> emit_order_;
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> values_;
  size_t mask_ = 0;
  size_t used_ = 0;
  std::vector<std::pair<NameId, size_t>> sibling_scratch_;
};

void Walk(const Node& node, uint32_t path_index, PathTable& table) {
  table.Emit(path_index);

  // Multiplicity: how many same-label siblings does each child have
  // (including itself)? Counted into the table's scratch buffer — a
  // linear scan beats a hash map at real fan-outs, and the buffer is
  // fully consumed below before any recursive frame reuses it.
  std::vector<std::pair<NameId, size_t>>& counts = table.sibling_scratch();
  counts.clear();
  for (size_t i = 0; i < node.child_count(); ++i) {
    const Node* child = node.child(i);
    if (!child->is_element()) continue;
    const NameId name = child->name_id();
    bool found = false;
    for (auto& [id, count] : counts) {
      if (id == name) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) counts.emplace_back(name, 1);
  }
  size_t element_index = 0;
  for (size_t i = 0; i < node.child_count(); ++i) {
    const Node* child = node.child(i);
    if (!child->is_element()) continue;
    const uint32_t child_path = table.Resolve(path_index, child->name_id());
    {
      size_t multiplicity = 0;
      for (const auto& [id, count] : counts) {
        if (id == child->name_id()) {
          multiplicity = count;
          break;
        }
      }
      PathTable::Entry& e = table.entry(child_path);
      e.max_multiplicity = std::max(e.max_multiplicity, multiplicity);
      e.position_sum += static_cast<double>(element_index);
      ++e.position_count;
    }
    ++element_index;
  }

  // Recurse only after the whole sibling pass: the scratch buffer and
  // any Entry references are dead by now, so reuse and reallocation in
  // deeper frames are safe. Resolve is a pure lookup the second time.
  for (size_t i = 0; i < node.child_count(); ++i) {
    const Node* child = node.child(i);
    if (!child->is_element()) continue;
    Walk(*child, table.Resolve(path_index, child->name_id()), table);
  }
}

}  // namespace

LabelPath LabelPathAt(const DocumentPaths& paths, size_t i) {
  const NameTable& names = NameTable::Global();
  LabelPath path;
  for (uint32_t j = static_cast<uint32_t>(i); j != DocumentPaths::kNoParentPath;
       j = paths.parent_index[j]) {
    path.emplace_back(names.NameOf(paths.leaf_name[j]));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

DocumentPaths ExtractPaths(const Node& root) {
  DocumentPaths out;
  if (!root.is_element()) return out;
  PathTable table;
  const uint32_t root_path =
      table.Resolve(PathTable::kNoParent, root.name_id());
  // The root path occurs exactly once per document.
  table.entry(root_path).max_multiplicity = 1;
  Walk(root, root_path, table);
  table.Materialize(out);
  return out;
}

DocumentPaths ExtractPaths(const FlatDoc& doc) {
  DocumentPaths out;
  const uint32_t count = doc.element_count();
  if (count == 0) return out;
  PathTable table;

  // Iterating flat indices in order IS the pre-order walk, and every
  // child is an element, so the emit / resolve / statistics sequence
  // below replays Walk() on the original tree call for call: emit the
  // element's path, count same-label siblings among its children, then
  // record each child's multiplicity and ordinal position.
  std::vector<uint32_t> elem_path(count);
  elem_path[0] = table.Resolve(PathTable::kNoParent, doc.name(0));
  table.entry(elem_path[0]).max_multiplicity = 1;

  for (uint32_t e = 0; e < count; ++e) {
    const uint32_t path_index = elem_path[e];
    table.Emit(path_index);

    std::vector<std::pair<NameId, size_t>>& counts = table.sibling_scratch();
    counts.clear();
    const uint32_t end = doc.subtree_end(e);
    for (uint32_t f = e + 1; f < end; f = doc.subtree_end(f)) {
      const NameId name = doc.name(f);
      bool found = false;
      for (auto& [id, n] : counts) {
        if (id == name) {
          ++n;
          found = true;
          break;
        }
      }
      if (!found) counts.emplace_back(name, 1);
    }
    uint32_t element_index = 0;
    for (uint32_t f = e + 1; f < end; f = doc.subtree_end(f)) {
      const uint32_t child_path = table.Resolve(path_index, doc.name(f));
      elem_path[f] = child_path;
      size_t multiplicity = 0;
      for (const auto& [id, n] : counts) {
        if (id == doc.name(f)) {
          multiplicity = n;
          break;
        }
      }
      PathTable::Entry& entry = table.entry(child_path);
      entry.max_multiplicity = std::max(entry.max_multiplicity, multiplicity);
      entry.position_sum += static_cast<double>(element_index);
      ++entry.position_count;
      ++element_index;
    }
  }
  table.Materialize(out);
  return out;
}

}  // namespace webre
