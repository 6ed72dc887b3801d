// Arena-backed node allocation: the bump arena itself, the thread-local
// NodeArenaScope install/restore discipline, the rule that a Node may be
// deleted after its originating scope has exited (the hidden header, not
// the current scope, names the node's arena), and slot recycling, which
// happens only when a node dies under its own arena's scope.

#include "xml/node_arena.h"

#include <memory>
#include <utility>

#include "gtest/gtest.h"
#include "util/arena.h"
#include "xml/node.h"

namespace webre {
namespace {

TEST(ArenaTest, BumpAllocationsAreAlignedAndCounted) {
  Arena arena;
  void* a = arena.Allocate(10);
  void* b = arena.Allocate(24);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % alignof(std::max_align_t), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % alignof(std::max_align_t), 0u);
  EXPECT_EQ(arena.bytes_allocated(), 34u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(ArenaTest, OversizedAllocationGetsDedicatedBlock) {
  Arena arena(/*initial_block_bytes=*/128);
  const size_t huge = Arena::kMaxBlockBytes + 64;
  char* p = static_cast<char*>(arena.Allocate(huge));
  ASSERT_NE(p, nullptr);
  p[0] = 'x';
  p[huge - 1] = 'y';  // the whole span must be addressable
  EXPECT_GE(arena.bytes_reserved(), huge);
}

TEST(ArenaTest, ManySmallAllocationsSpanBlocks) {
  Arena arena(/*initial_block_bytes=*/256);
  for (int i = 0; i < 1000; ++i) {
    void* p = arena.Allocate(64);
    ASSERT_NE(p, nullptr);
  }
  EXPECT_EQ(arena.bytes_allocated(), 64000u);
  EXPECT_GT(arena.block_count(), 1u);
}

TEST(ArenaTest, ResetOnEmptyArenaIsANoOp) {
  Arena arena;
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.block_count(), 0u);
  EXPECT_NE(arena.Allocate(8), nullptr);  // usable after Reset
}

TEST(ArenaTest, ResetKeepsExactlyOneSpareBlock) {
  Arena arena(/*initial_block_bytes=*/256);
  for (int i = 0; i < 100; ++i) arena.Allocate(64);
  ASSERT_GT(arena.block_count(), 1u);
  const size_t reserved_before = arena.bytes_reserved();

  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.block_count(), 1u);  // only the largest block survives
  EXPECT_GT(arena.bytes_reserved(), 0u);
  EXPECT_LT(arena.bytes_reserved(), reserved_before);

  // The spare is reused in place: small allocations after Reset bump
  // within it instead of mapping fresh blocks.
  const size_t spare = arena.bytes_reserved();
  void* p = arena.Allocate(64);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_EQ(arena.bytes_reserved(), spare);
}

TEST(ArenaTest, ResetSpareServesRepeatedCycles) {
  // The conversion pipeline's reuse pattern: fill, Reset, fill again.
  // Steady state must not accumulate blocks round over round.
  Arena arena(/*initial_block_bytes=*/256);
  size_t steady_reserved = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) arena.Allocate(48);
    arena.Reset();
    EXPECT_EQ(arena.block_count(), 1u) << "round " << round;
    if (round == 1) steady_reserved = arena.bytes_reserved();
    if (round > 1) {
      EXPECT_EQ(arena.bytes_reserved(), steady_reserved)
          << "round " << round;
    }
  }
}

TEST(NodeArenaTest, NoScopeMeansHeapAllocation) {
  ASSERT_EQ(NodeArena::Current(), nullptr);
  auto node = Node::MakeElement("a");
  EXPECT_EQ(node->name(), "a");
}

TEST(NodeArenaTest, ScopeInstallsAndRestores) {
  NodeArena arena;
  EXPECT_EQ(NodeArena::Current(), nullptr);
  {
    NodeArenaScope scope(&arena);
    EXPECT_EQ(NodeArena::Current(), &arena);
    {
      NodeArena inner;
      NodeArenaScope inner_scope(&inner);
      EXPECT_EQ(NodeArena::Current(), &inner);
    }
    EXPECT_EQ(NodeArena::Current(), &arena);
  }
  EXPECT_EQ(NodeArena::Current(), nullptr);
}

TEST(NodeArenaTest, NullScopeIsNoOp) {
  NodeArena arena;
  NodeArenaScope outer(&arena);
  {
    NodeArenaScope noop(nullptr);
    EXPECT_EQ(NodeArena::Current(), &arena);
  }
  EXPECT_EQ(NodeArena::Current(), &arena);
}

TEST(NodeArenaTest, TreeAllocationIsCountedPerArena) {
  NodeArena arena;
  std::unique_ptr<Node> root;
  {
    NodeArenaScope scope(&arena);
    root = Node::MakeElement("a");
    Node* b = root->AddElement("b");
    b->AddText("hello");
    root->AddElement("c");
  }
  EXPECT_EQ(arena.nodes_allocated(), 4u);
  EXPECT_GT(arena.bytes_allocated(), 4 * sizeof(Node));
  // Deleting arena nodes after the scope exited is legal: destructors
  // run (freeing the owned strings/vectors) but the arena keeps the
  // node memory until it dies.
  root.reset();
  EXPECT_EQ(arena.nodes_allocated(), 4u);
}

TEST(NodeArenaTest, AllocationCounterTracksNodesNotOrigin) {
  const uint64_t before = Node::AllocationsOnThisThread();
  NodeArena arena;
  {
    NodeArenaScope scope(&arena);
    auto root = Node::MakeElement("a");
    root->AddElement("b");
  }
  auto heap_node = Node::MakeElement("c");
  EXPECT_EQ(Node::AllocationsOnThisThread() - before, 3u);
}

TEST(NodeArenaTest, CloneOutsideScopeProducesHeapTree) {
  NodeArena arena;
  std::unique_ptr<Node> root;
  {
    NodeArenaScope scope(&arena);
    root = Node::MakeElement("a");
    root->AddElement("b")->AddText("t");
  }
  const size_t nodes_in_arena = arena.nodes_allocated();
  // No scope installed: the clone's nodes come from the heap and may
  // outlive the arena entirely.
  std::unique_ptr<Node> clone = root->Clone();
  EXPECT_EQ(arena.nodes_allocated(), nodes_in_arena);
  root.reset();
  EXPECT_EQ(clone->DebugString(), "a(b(\"t\"))");
}

TEST(NodeArenaTest, ResetClearsNodeCountAndKeepsSpare) {
  NodeArena arena;
  {
    NodeArenaScope scope(&arena);
    auto root = Node::MakeElement("a");
    for (int i = 0; i < 64; ++i) root->AddElement("b");
  }
  ASSERT_EQ(arena.nodes_allocated(), 65u);
  const size_t reserved = arena.bytes_reserved();
  ASSERT_GT(reserved, 0u);

  arena.Reset();
  EXPECT_EQ(arena.nodes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_GT(arena.bytes_reserved(), 0u);  // spare block retained
  EXPECT_LE(arena.bytes_reserved(), reserved);

  // The arena is immediately usable for the next document.
  {
    NodeArenaScope scope(&arena);
    auto root = Node::MakeElement("c");
    root->AddElement("d");
  }
  EXPECT_EQ(arena.nodes_allocated(), 2u);
}

TEST(NodeArenaTest, SplicedNodesLeaveTheTreeIntact) {
  // The pipeline's restructure rules splice nodes out and delete them
  // mid-conversion; with an arena installed the delete recycles the
  // slot. The remaining tree must be unaffected.
  NodeArena arena;
  std::unique_ptr<Node> root;
  {
    NodeArenaScope scope(&arena);
    root = Node::MakeElement("a");
    root->AddElement("b");
    root->AddElement("c");
    std::unique_ptr<Node> removed = root->RemoveChild(0);
    removed.reset();  // recycles b's slot
    root->AddElement("d");  // reuses it
  }
  ASSERT_EQ(root->child_count(), 2u);
  EXPECT_EQ(root->child(0)->name(), "c");
  EXPECT_EQ(root->child(1)->name(), "d");
}

TEST(NodeArenaTest, SlotIsReusedWithinItsScope) {
  NodeArena arena;
  NodeArenaScope scope(&arena);
  auto first = Node::MakeElement("a");
  const Node* slot = first.get();
  const size_t bumped = arena.bytes_allocated();
  first.reset();
  auto second = Node::MakeText("b");
  EXPECT_EQ(second.get(), slot);
  EXPECT_EQ(arena.bytes_allocated(), bumped);  // no new bytes bumped
  EXPECT_EQ(second->text(), "b");
  EXPECT_EQ(second->name_id(), kInvalidNameId);  // nothing of `a` left
}

TEST(NodeArenaTest, SlotIsNotReusedWhenDeletedOutsideAnyScope) {
  NodeArena arena;
  std::unique_ptr<Node> first;
  {
    NodeArenaScope scope(&arena);
    first = Node::MakeElement("a");
  }
  const Node* slot = first.get();
  first.reset();  // no scope: the slot stays until the arena dies
  const size_t bumped = arena.bytes_allocated();
  NodeArenaScope scope(&arena);
  auto second = Node::MakeElement("b");
  EXPECT_NE(second.get(), slot);
  EXPECT_GT(arena.bytes_allocated(), bumped);
}

TEST(NodeArenaTest, SlotIsNotReusedWhenDeletedUnderAnotherArena) {
  NodeArena arena;
  NodeArena other;
  std::unique_ptr<Node> first;
  {
    NodeArenaScope scope(&arena);
    first = Node::MakeElement("a");
  }
  const Node* slot = first.get();
  {
    NodeArenaScope scope(&other);
    first.reset();  // neither arena takes the slot
    auto in_other = Node::MakeElement("b");
    EXPECT_NE(in_other.get(), slot);
    EXPECT_EQ(other.nodes_allocated(), 1u);
  }
  NodeArenaScope scope(&arena);
  auto second = Node::MakeElement("c");
  EXPECT_NE(second.get(), slot);
}

TEST(NodeArenaTest, ResetClearsTheFreeList) {
  NodeArena arena;
  {
    NodeArenaScope scope(&arena);
    auto a = Node::MakeElement("a");
    auto b = Node::MakeElement("b");
  }  // both slots recycled under the scope
  arena.Reset();
  NodeArenaScope scope(&arena);
  auto fresh = Node::MakeElement("c");
  // Bumped from the rewound block, not popped from the dropped list.
  EXPECT_GT(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.nodes_allocated(), 1u);
}

TEST(NodeArenaTest, HeapNodeDeletedInsideAScopeGoesBackToTheHeap) {
  auto heap_node = Node::MakeElement("a");
  NodeArena arena;
  NodeArenaScope scope(&arena);
  heap_node.reset();  // freed to the heap, not pushed on the free list
  auto arena_node = Node::MakeElement("b");
  EXPECT_GT(arena.bytes_allocated(), 0u);  // bumped: the list was empty
  EXPECT_EQ(arena.nodes_allocated(), 1u);
}

TEST(NodeArenaTest, NodesAllocatedCountsReusedSlots) {
  NodeArena arena;
  NodeArenaScope scope(&arena);
  Node::MakeElement("a");  // dies at once, recycled
  const size_t one_slot = arena.bytes_allocated();
  for (int i = 1; i < 10; ++i) Node::MakeElement("a");
  EXPECT_EQ(arena.nodes_allocated(), 10u);
  EXPECT_EQ(arena.bytes_allocated(), one_slot);  // one slot served all ten
  auto kept = Node::MakeElement("b");
  EXPECT_EQ(arena.nodes_allocated(), 11u);
}

#ifdef WEBRE_ASAN
TEST(NodeArenaDeathTest, RecycledSlotIsPoisoned) {
  NodeArena arena;
  NodeArenaScope scope(&arena);
  auto node = Node::MakeElement("a");
  const Node* dangling = node.get();
  node.reset();
  EXPECT_DEATH(
      (void)*reinterpret_cast<const volatile char*>(dangling),
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace webre
