#include "xml/flat_doc.h"

#include <cstring>
#include <vector>

namespace webre {
namespace {

// DFS frame: `index` is the flat pre-order index already assigned to
// `node`; `child` is the next child slot to visit.
struct Frame {
  const Node* node;
  uint32_t index;
  size_t child;
};

}  // namespace

std::unique_ptr<FlatDoc> FlatDoc::Freeze(const Node& root) {
  // Phase one: collect into growable temporaries with an explicit
  // stack (depth-safe, like every other whole-tree walk in the xml
  // layer). Only element nodes get indices; text children are skipped
  // because queries address elements and their `val` attribute.
  std::vector<NameId> names;
  std::vector<uint32_t> parents;
  std::vector<uint32_t> ends;
  std::vector<uint32_t> offsets;
  std::string text;

  const size_t hint = root.SubtreeSize();
  names.reserve(hint);
  parents.reserve(hint);
  ends.reserve(hint);
  offsets.reserve(hint + 1);

  auto open = [&](const Node& node, uint32_t parent) -> uint32_t {
    uint32_t index = static_cast<uint32_t>(names.size());
    names.push_back(node.name_id());
    parents.push_back(parent);
    ends.push_back(0);  // patched when the subtree closes
    offsets.push_back(static_cast<uint32_t>(text.size()));
    text.append(node.val());
    return index;
  };

  std::vector<Frame> stack;
  stack.push_back(Frame{&root, open(root, kNoParent), 0});
  while (!stack.empty()) {
    Frame& top = stack.back();
    const auto& children = top.node->children();
    size_t child = top.child;
    while (child < children.size() && !children[child]->is_element()) {
      ++child;
    }
    if (child == children.size()) {
      ends[top.index] = static_cast<uint32_t>(names.size());
      stack.pop_back();
      continue;
    }
    top.child = child + 1;
    const Node* node = children[child].get();
    const uint32_t parent = top.index;
    // `open` and push_back may reallocate; `top` is dead after this.
    stack.push_back(Frame{node, open(*node, parent), 0});
  }
  offsets.push_back(static_cast<uint32_t>(text.size()));

  // Phase two: pack everything into one block. All uint32 arrays come
  // first so their 4-byte alignment holds (the block itself is at
  // least pointer-aligned); the text pool follows.
  const size_t count = names.size();
  const size_t ints_bytes = sizeof(uint32_t) * (3 * count + (count + 1));
  const size_t block_bytes = ints_bytes + text.size();

  std::unique_ptr<FlatDoc> doc(new FlatDoc());
  doc->count_ = static_cast<uint32_t>(count);
  doc->block_bytes_ = block_bytes;
  doc->block_ = std::make_unique<char[]>(block_bytes);

  char* cursor = doc->block_.get();
  auto place_u32 = [&cursor](const std::vector<uint32_t>& src) {
    uint32_t* dst = reinterpret_cast<uint32_t*>(cursor);
    std::memcpy(dst, src.data(), src.size() * sizeof(uint32_t));
    cursor += src.size() * sizeof(uint32_t);
    return dst;
  };
  doc->names_ = place_u32(names);
  doc->parents_ = place_u32(parents);
  doc->subtree_end_ = place_u32(ends);
  doc->text_off_ = place_u32(offsets);

  std::memcpy(cursor, text.data(), text.size());
  doc->text_ = cursor;
  return doc;
}

Status FlatDoc::InitFromBlock(const char* base, size_t block_bytes,
                              uint32_t element_count, NameId name_limit) {
  // Untrusted input (a WAL record or snapshot section): every claim the
  // header makes about the block is proven here, so the accessors above
  // can stay unchecked index arithmetic.
  const size_t count = element_count;
  // 3 parallel arrays of `count` u32s plus count+1 text offsets. Cap the
  // count so the size arithmetic cannot overflow even on 32-bit size_t.
  if (count > kMaxElements) {
    return Status::InvalidArgument("flat block: element count too large");
  }
  const size_t ints_bytes = sizeof(uint32_t) * (4 * count + 1);
  if (block_bytes < ints_bytes) {
    return Status::InvalidArgument("flat block: size does not match layout");
  }
  const size_t text_size = block_bytes - ints_bytes;
  if (text_size > 0xFFFFFFFFu) {
    return Status::InvalidArgument("flat block: text pool too large");
  }

  const uint32_t* u32s = reinterpret_cast<const uint32_t*>(base);
  const uint32_t* names = u32s;
  const uint32_t* parents = u32s + count;
  const uint32_t* ends = u32s + 2 * count;
  const uint32_t* offsets = u32s + 3 * count;

  if (offsets[0] != 0 ||
      offsets[count] != static_cast<uint32_t>(text_size)) {
    return Status::InvalidArgument("flat block: text offsets out of range");
  }
  for (size_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::InvalidArgument("flat block: text offsets not sorted");
    }
    if (names[i] >= name_limit) {
      return Status::InvalidArgument("flat block: NameId out of range");
    }
    // Pre-order invariants: parents precede children; subtrees nest.
    if (i == 0) {
      if (parents[0] != kNoParent || (count > 0 && ends[0] != count)) {
        return Status::InvalidArgument("flat block: malformed root");
      }
    } else {
      const uint32_t parent = parents[i];
      if (parent >= i || ends[i] > ends[parent]) {
        return Status::InvalidArgument("flat block: malformed tree links");
      }
    }
    if (ends[i] <= i || ends[i] > count) {
      return Status::InvalidArgument("flat block: malformed subtree range");
    }
  }

  count_ = element_count;
  block_bytes_ = block_bytes;
  names_ = names;
  parents_ = parents;
  subtree_end_ = ends;
  text_off_ = offsets;
  text_ = base + ints_bytes;
  return Status::Ok();
}

StatusOr<std::unique_ptr<FlatDoc>> FlatDoc::FromOwnedBlock(
    std::unique_ptr<char[]> block, size_t block_bytes, uint32_t element_count,
    NameId name_limit) {
  std::unique_ptr<FlatDoc> doc(new FlatDoc());
  Status status = doc->InitFromBlock(block.get(), block_bytes, element_count,
                                     name_limit);
  if (!status.ok()) return status;
  doc->block_ = std::move(block);
  return doc;
}

StatusOr<std::unique_ptr<FlatDoc>> FlatDoc::FromMappedBlock(
    const char* data, size_t block_bytes, uint32_t element_count,
    NameId name_limit) {
  if (reinterpret_cast<uintptr_t>(data) % alignof(uint32_t) != 0) {
    return Status::InvalidArgument("flat block: mapped bytes misaligned");
  }
  std::unique_ptr<FlatDoc> doc(new FlatDoc());
  Status status =
      doc->InitFromBlock(data, block_bytes, element_count, name_limit);
  if (!status.ok()) return status;
  return doc;
}

}  // namespace webre
