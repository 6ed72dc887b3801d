#ifndef WEBRE_XML_NODE_ARENA_H_
#define WEBRE_XML_NODE_ARENA_H_

#include <cstddef>

#include "util/arena.h"

#if defined(__SANITIZE_ADDRESS__)
#define WEBRE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WEBRE_ASAN 1
#endif
#endif
#ifdef WEBRE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace webre {

/// Per-document arena that owns the memory of every Node allocated while
/// it is installed (via NodeArenaScope). The whole tree is carved out of
/// a handful of contiguous blocks and freed in O(1) when the arena dies.
/// `delete` on an arena node runs the destructor (member strings/vectors
/// are still individually owned) and, when the arena is the current
/// scope on the deleting thread, pushes the node's slot onto a free list
/// that the next allocation pops before bumping. Every slot has one size
/// (Node is the only client), so the list needs no size classes. A
/// delete outside the arena's own scope returns no memory: the slot stays
/// resident until the arena dies or is Reset.
///
/// Lifetime rule (DESIGN.md §11): the arena must outlive every Node
/// allocated from it. PipelineResult enforces this by declaring its
/// arenas before its documents.
///
/// Not thread-safe; one document (hence one thread at a time) per arena.
class NodeArena {
 public:
  NodeArena() = default;
  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  /// Carves one node allocation (header included) out of the arena.
  /// Called by Node::operator new; not for general use.
  /// A recycled slot is reused before the arena bumps.
  void* AllocateNode(size_t size) {
    ++nodes_allocated_;
    if (free_slots_ != nullptr) {
      FreeSlot* slot = free_slots_;
#ifdef WEBRE_ASAN
      ASAN_UNPOISON_MEMORY_REGION(slot, size);
#endif
      free_slots_ = slot->next;
      return slot;
    }
    return arena_.Allocate(size);
  }

  /// Recycles the `size`-byte slot of a destroyed node (header included)
  /// for the next AllocateNode. Called by Node::operator delete only
  /// while this arena is the thread's current scope; not for general
  /// use. Under AddressSanitizer the slot is poisoned until it is
  /// reused, so a read through a dangling Node* fails loudly.
  void ReleaseNode(void* raw, size_t size) {
    FreeSlot* slot = static_cast<FreeSlot*>(raw);
    slot->next = free_slots_;
    free_slots_ = slot;
    slot_bytes_ = size;
#ifdef WEBRE_ASAN
    ASAN_POISON_MEMORY_REGION(slot, size);
#endif
  }

  /// Node allocations served by this arena, reused slots included
  /// (splices don't decrement).
  size_t nodes_allocated() const { return nodes_allocated_; }
  /// Payload bytes bumped, including node headers. A reused slot is not
  /// counted again.
  size_t bytes_allocated() const { return arena_.bytes_allocated(); }
  /// Bytes reserved from the system allocator.
  size_t bytes_reserved() const { return arena_.bytes_reserved(); }

  /// Rewinds the arena (keeping at most one spare block — see
  /// Arena::Reset) and drops the free list. Every Node allocated from it
  /// must already be gone.
  void Reset();

  /// The arena installed on this thread, or null (heap allocation).
  static NodeArena* Current();

 private:
  friend class NodeArenaScope;

  // A recycled slot; the link overlays the dead node's header.
  struct FreeSlot {
    FreeSlot* next;
  };

  Arena arena_;
  FreeSlot* free_slots_ = nullptr;
  size_t slot_bytes_ = 0;  // size of every recycled slot
  size_t nodes_allocated_ = 0;
};

/// RAII: installs `arena` as the thread's current node arena; restores
/// the previous one (normally null) on destruction. Passing null is a
/// no-op scope — callers can thread one code path through both the
/// arena and heap configurations.
class NodeArenaScope {
 public:
  explicit NodeArenaScope(NodeArena* arena);
  ~NodeArenaScope();

  NodeArenaScope(const NodeArenaScope&) = delete;
  NodeArenaScope& operator=(const NodeArenaScope&) = delete;

 private:
  NodeArena* previous_;
  bool installed_;
};

}  // namespace webre

#endif  // WEBRE_XML_NODE_ARENA_H_
