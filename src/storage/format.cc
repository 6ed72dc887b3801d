#include "storage/format.h"

#include <algorithm>

namespace webre {
namespace storage {

StatusOr<std::unique_ptr<FlatDoc>> LoadBlockCopy(std::string_view stored,
                                                 uint32_t element_count,
                                                 uint32_t version,
                                                 const NameRemap* remap,
                                                 NameId name_limit) {
  const size_t count = element_count;
  if (count > FlatDoc::kMaxElements) {
    return Status::InvalidArgument("stored block: element count too large");
  }
  std::unique_ptr<char[]> block;
  size_t block_bytes = stored.size();
  if (version == kFormatV1) {
    // v1: names | parents | depths | subtree_end | text_off | text |
    // lower, the two pools equally long. Keep all but depths and lower.
    const size_t v1_ints = sizeof(uint32_t) * (5 * count + 1);
    if (stored.size() < v1_ints || (stored.size() - v1_ints) % 2 != 0) {
      return Status::InvalidArgument("v1 block: size does not match layout");
    }
    const size_t text_size = (stored.size() - v1_ints) / 2;
    const size_t head = sizeof(uint32_t) * 2 * count;   // names, parents
    const size_t tail = sizeof(uint32_t) * (2 * count + 1);  // ends, offs
    block_bytes = head + tail + text_size;
    block = std::make_unique<char[]>(block_bytes);
    std::memcpy(block.get(), stored.data(), head);
    std::memcpy(block.get() + head, stored.data() + head + 4 * count, tail);
    std::memcpy(block.get() + head + tail, stored.data() + v1_ints, text_size);
  } else if (version == kFormatVersion) {
    block = std::make_unique<char[]>(block_bytes);
    std::memcpy(block.get(), stored.data(), block_bytes);
  } else {
    return Status::InvalidArgument("stored block: unknown format version");
  }

  if (remap != nullptr) {
    // The block's leading element_count u32s are its NameIds.
    if (block_bytes < sizeof(uint32_t) * count) {
      return Status::InvalidArgument("stored block too small for names");
    }
    uint32_t* ids = reinterpret_cast<uint32_t*>(block.get());
    for (size_t i = 0; i < count; ++i) {
      const auto it = std::lower_bound(
          remap->begin(), remap->end(), ids[i],
          [](const std::pair<NameId, NameId>& entry, NameId id) {
            return entry.first < id;
          });
      if (it == remap->end() || it->first != ids[i]) {
        return Status::InvalidArgument(
            "stored block names an id missing from its name map");
      }
      ids[i] = it->second;
    }
  }
  return FlatDoc::FromOwnedBlock(std::move(block), block_bytes, element_count,
                                 name_limit);
}

}  // namespace storage
}  // namespace webre
