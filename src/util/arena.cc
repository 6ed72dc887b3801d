#include "util/arena.h"

#include <algorithm>

namespace webre {

void* Arena::AllocateSlow(size_t size, size_t align) {
  // A block must fit the request plus worst-case alignment padding.
  size_t need = size + align;
  size_t block_bytes = std::max(next_block_bytes_, need);
  if (next_block_bytes_ < kMaxBlockBytes) {
    next_block_bytes_ = std::min(next_block_bytes_ * 2, kMaxBlockBytes);
  }
  Block block;
  // Not value-initialised: every arena user writes before it reads.
  block.data = std::make_unique_for_overwrite<char[]>(block_bytes);
  block.size = block_bytes;
  cursor_ = reinterpret_cast<uintptr_t>(block.data.get());
  limit_ = cursor_ + block_bytes;
  bytes_reserved_ += block_bytes;
  blocks_.push_back(std::move(block));

  uintptr_t p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
  cursor_ = p + size;
  bytes_allocated_ += size;
  return reinterpret_cast<void*>(p);
}

void Arena::Reset() {
  if (!blocks_.empty()) {
    // Keep only the largest block as the spare to bump into next time.
    size_t keep = 0;
    for (size_t i = 1; i < blocks_.size(); ++i) {
      if (blocks_[i].size > blocks_[keep].size) keep = i;
    }
    Block spare = std::move(blocks_[keep]);
    blocks_.clear();
    cursor_ = reinterpret_cast<uintptr_t>(spare.data.get());
    limit_ = cursor_ + spare.size;
    bytes_reserved_ = spare.size;
    blocks_.push_back(std::move(spare));
  } else {
    cursor_ = 0;
    limit_ = 0;
    bytes_reserved_ = 0;
  }
  bytes_allocated_ = 0;
}

}  // namespace webre
