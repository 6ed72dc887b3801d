#include "xml/node_arena.h"

namespace webre {
namespace {

thread_local NodeArena* tls_current_arena = nullptr;

}  // namespace

NodeArena* NodeArena::Current() { return tls_current_arena; }

void NodeArena::Reset() {
#ifdef WEBRE_ASAN
  // The spare block is bumped into again, so its poisoned slots must be
  // addressable before the list that names them is dropped.
  while (free_slots_ != nullptr) {
    ASAN_UNPOISON_MEMORY_REGION(free_slots_, slot_bytes_);
    free_slots_ = free_slots_->next;
  }
#endif
  free_slots_ = nullptr;
  arena_.Reset();
  nodes_allocated_ = 0;
}

NodeArenaScope::NodeArenaScope(NodeArena* arena)
    : previous_(tls_current_arena), installed_(arena != nullptr) {
  if (installed_) tls_current_arena = arena;
}

NodeArenaScope::~NodeArenaScope() {
  if (installed_) tls_current_arena = previous_;
}

}  // namespace webre
