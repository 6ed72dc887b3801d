#include "xml/node.h"

#include <cassert>
#include <functional>
#include <new>
#include <utility>

#include "xml/node_arena.h"

namespace webre {
namespace {

// Hidden allocation header prepended to every Node: the owning
// NodeArena, or null for a heap node. 16 bytes keeps the node payload
// aligned for max_align_t on all supported targets.
constexpr size_t kNodeHeaderBytes = 16;
static_assert(kNodeHeaderBytes % alignof(std::max_align_t) == 0,
              "node header must preserve max alignment");
static_assert(sizeof(NodeArena*) <= kNodeHeaderBytes,
              "node header must hold the owning arena");

// Every Node allocation is one slot of this size (Node has no subclasses).
constexpr size_t kNodeSlotBytes = sizeof(Node) + kNodeHeaderBytes;

thread_local uint64_t tls_node_allocations = 0;

}  // namespace

void* Node::operator new(size_t size) {
  assert(size == sizeof(Node));
  ++tls_node_allocations;
  NodeArena* arena = NodeArena::Current();
  void* raw = arena != nullptr ? arena->AllocateNode(size + kNodeHeaderBytes)
                               : ::operator new(size + kNodeHeaderBytes);
  *static_cast<NodeArena**>(raw) = arena;
  return static_cast<char*>(raw) + kNodeHeaderBytes;
}

void Node::operator delete(void* ptr) noexcept {
  if (ptr == nullptr) return;
  void* raw = static_cast<char*>(ptr) - kNodeHeaderBytes;
  NodeArena* arena = *static_cast<NodeArena**>(raw);
  if (arena == nullptr) {
    ::operator delete(raw);
    return;
  }
  // The destructor has already run. The slot is recycled only under its
  // own arena's scope on this thread: one arena's trees (a document and
  // its mapped copy) may be freed on different threads, and only the
  // thread inside the scope may touch the free list. Any other delete
  // leaves the slot to die with the arena.
  if (arena == NodeArena::Current()) arena->ReleaseNode(raw, kNodeSlotBytes);
}

void Node::operator delete(void* ptr, size_t /*size*/) noexcept {
  Node::operator delete(ptr);
}

uint64_t Node::AllocationsOnThisThread() { return tls_node_allocations; }

std::unique_ptr<Node> Node::MakeElement(NameId name) {
  auto node = std::unique_ptr<Node>(new Node(NodeType::kElement));
  node->name_id_ = name;
  return node;
}

std::unique_ptr<Node> Node::MakeElement(std::string_view name) {
  return MakeElement(NameTable::Global().Intern(name));
}

std::unique_ptr<Node> Node::MakeText(std::string text) {
  auto node = std::unique_ptr<Node>(new Node(NodeType::kText));
  node->text_ = std::move(text);
  return node;
}

Node::~Node() {
  if (children_.empty()) return;
  // Detach the whole subtree onto an explicit work-list so destruction
  // is iterative: the default member destructor would recurse once per
  // tree level and overflow the stack on pathologically deep trees.
  std::vector<std::unique_ptr<Node>> pending = std::move(children_);
  children_.clear();
  while (!pending.empty()) {
    std::unique_ptr<Node> node = std::move(pending.back());
    pending.pop_back();
    for (auto& child : node->children_) pending.push_back(std::move(child));
    node->children_.clear();
    // `node` is destroyed here with no children left — no recursion.
  }
}

std::string_view Node::attr(std::string_view name) const {
  for (const Attribute& a : attributes_) {
    if (a.name == name) return a.value;
  }
  return {};
}

bool Node::has_attr(std::string_view name) const {
  for (const Attribute& a : attributes_) {
    if (a.name == name) return true;
  }
  return false;
}

void Node::set_attr(std::string_view name, std::string value) {
  for (Attribute& a : attributes_) {
    if (a.name == name) {
      a.value = std::move(value);
      return;
    }
  }
  attributes_.push_back(Attribute{std::string(name), std::move(value)});
}

void Node::remove_attr(std::string_view name) {
  for (auto it = attributes_.begin(); it != attributes_.end(); ++it) {
    if (it->name == name) {
      attributes_.erase(it);
      return;
    }
  }
}

void Node::AppendVal(std::string_view more) {
  if (more.empty()) return;
  for (Attribute& a : attributes_) {
    if (a.name != "val") continue;
    std::string& current = a.value;
    if (current.empty()) {
      current.assign(more);
      return;
    }
    // Grow first, then re-point `more` when it views `current`: the
    // appends below then never reallocate under it.
    const char* old_data = current.data();
    const std::less<const char*> before;
    const bool aliases = !before(more.data(), old_data) &&
                         before(more.data(), old_data + current.size());
    const size_t offset = aliases ? more.data() - old_data : 0;
    current.reserve(current.size() + 1 + more.size());
    if (aliases) more = std::string_view(current.data() + offset, more.size());
    current.push_back(' ');
    current.append(more);
    return;
  }
  attributes_.push_back(Attribute{"val", std::string(more)});
}

size_t Node::IndexOf(const Node* child) const {
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].get() == child) return i;
  }
  assert(false && "IndexOf: not a child of this node");
  return children_.size();
}

Node* Node::AddChild(std::unique_ptr<Node> child) {
  assert(child != nullptr);
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

Node* Node::InsertChild(size_t index, std::unique_ptr<Node> child) {
  assert(child != nullptr);
  assert(index <= children_.size());
  child->parent_ = this;
  auto it = children_.insert(
      children_.begin() + static_cast<ptrdiff_t>(index), std::move(child));
  return it->get();
}

std::unique_ptr<Node> Node::RemoveChild(size_t index) {
  assert(index < children_.size());
  std::unique_ptr<Node> removed = std::move(children_[index]);
  children_.erase(children_.begin() + static_cast<ptrdiff_t>(index));
  removed->parent_ = nullptr;
  return removed;
}

std::vector<std::unique_ptr<Node>> Node::RemoveAllChildren() {
  for (auto& c : children_) c->parent_ = nullptr;
  std::vector<std::unique_ptr<Node>> out = std::move(children_);
  children_.clear();
  return out;
}

std::unique_ptr<Node> Node::ReplaceChild(size_t index,
                                         std::unique_ptr<Node> replacement) {
  assert(index < children_.size());
  assert(replacement != nullptr);
  replacement->parent_ = this;
  std::unique_ptr<Node> old = std::move(children_[index]);
  old->parent_ = nullptr;
  children_[index] = std::move(replacement);
  return old;
}

Node* Node::AddElement(NameId name) { return AddChild(MakeElement(name)); }

Node* Node::AddElement(std::string_view name) {
  return AddChild(MakeElement(name));
}

Node* Node::AddText(std::string text) {
  return AddChild(MakeText(std::move(text)));
}

std::unique_ptr<Node> Node::Clone() const {
  auto copy_one = [](const Node& src) {
    std::unique_ptr<Node> copy(new Node(src.type_));
    copy->name_id_ = src.name_id_;
    copy->text_ = src.text_;
    copy->attributes_ = src.attributes_;
    return copy;
  };
  std::unique_ptr<Node> root = copy_one(*this);
  // Iterative DFS: (source node, already-built copy of it). Children are
  // pushed in reverse so left-to-right order is preserved, though order
  // on the work-list is irrelevant — each pair is independent.
  std::vector<std::pair<const Node*, Node*>> pending;
  pending.emplace_back(this, root.get());
  while (!pending.empty()) {
    auto [src, dst] = pending.back();
    pending.pop_back();
    dst->children_.reserve(src->children_.size());
    for (const auto& child : src->children_) {
      Node* child_copy = dst->AddChild(copy_one(*child));
      pending.emplace_back(child.get(), child_copy);
    }
  }
  return root;
}

size_t Node::SubtreeSize() const {
  size_t count = 0;
  std::vector<const Node*> pending;
  pending.push_back(this);
  while (!pending.empty()) {
    const Node* node = pending.back();
    pending.pop_back();
    ++count;
    for (const auto& child : node->children_) pending.push_back(child.get());
  }
  return count;
}

size_t Node::Depth() const {
  size_t depth = 0;
  for (const Node* p = parent_; p != nullptr; p = p->parent_) ++depth;
  return depth;
}

void Node::PreOrder(const std::function<void(const Node&)>& visit) const {
  visit(*this);
  for (const auto& child : children_) child->PreOrder(visit);
}

void Node::PreOrderMutable(const std::function<void(Node&)>& visit) {
  visit(*this);
  // Children may be mutated by the visitor; iterate by index defensively.
  for (size_t i = 0; i < children_.size(); ++i) {
    children_[i]->PreOrderMutable(visit);
  }
}

bool operator==(const Node& a, const Node& b) {
  if (a.type_ != b.type_ || a.name_id_ != b.name_id_ || a.text_ != b.text_ ||
      a.attributes_ != b.attributes_ ||
      a.children_.size() != b.children_.size()) {
    return false;
  }
  for (size_t i = 0; i < a.children_.size(); ++i) {
    if (!(*a.children_[i] == *b.children_[i])) return false;
  }
  return true;
}

namespace {

void DebugAppend(const Node& node, std::string& out) {
  if (node.is_text()) {
    out.push_back('"');
    out.append(node.text());
    out.push_back('"');
    return;
  }
  out.append(node.name());
  if (!node.val().empty()) {
    out.append("[val=");
    out.append(node.val());
    out.push_back(']');
  }
  if (node.child_count() > 0) {
    out.push_back('(');
    for (size_t i = 0; i < node.child_count(); ++i) {
      if (i > 0) out.push_back(' ');
      DebugAppend(*node.child(i), out);
    }
    out.push_back(')');
  }
}

}  // namespace

std::string Node::DebugString() const {
  std::string out;
  DebugAppend(*this, out);
  return out;
}

TreeStats MeasureTree(const Node& root) {
  TreeStats stats;
  std::vector<std::pair<const Node*, size_t>> pending;
  pending.emplace_back(&root, 0);
  while (!pending.empty()) {
    const auto [node, depth] = pending.back();
    pending.pop_back();
    ++stats.node_count;
    if (depth > stats.max_depth) stats.max_depth = depth;
    for (size_t i = 0; i < node->child_count(); ++i) {
      pending.emplace_back(node->child(i), depth + 1);
    }
  }
  return stats;
}

}  // namespace webre
