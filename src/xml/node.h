#ifndef WEBRE_XML_NODE_H_
#define WEBRE_XML_NODE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "xml/name_table.h"

namespace webre {

/// Kind of a tree node.
enum class NodeType {
  kElement,  ///< named element with attributes and children
  kText,     ///< character data leaf
};

/// A single name="value" attribute. Order of attributes is preserved.
struct Attribute {
  std::string name;
  std::string value;

  friend bool operator==(const Attribute& a, const Attribute& b) {
    return a.name == b.name && a.value == b.value;
  }
};

/// Ordered tree node shared by the HTML and XML stages of the pipeline.
///
/// The paper "considers an input HTML document as XML document" (§2.3):
/// both the parsed HTML tree and the restructured XML tree use this type.
/// Element names are interned in the process-wide NameTable and stored
/// as 32-bit NameIds, so renames and name-equality checks in the
/// restructuring rules are integer operations and a node carries no
/// owned name string. HTML parsing lowercases tag names while the
/// restructuring rules emit uppercase concept names, so the two
/// vocabularies never collide.
///
/// Ownership: a node owns its children via unique_ptr; `parent()` is a
/// non-owning back-pointer maintained by the mutation methods.
///
/// Allocation: when a NodeArena is installed on the current thread
/// (NodeArenaScope), nodes are carved out of it — the document's whole
/// tree dies in O(1) with the arena — and `delete` returns a node's slot
/// to that arena for reuse only while the arena is still the thread's
/// current scope. Without a scope, nodes come from the heap as usual.
/// Each node carries a hidden header naming its arena (null for the
/// heap), so heap nodes and arena nodes can be destroyed through the
/// same unique_ptr machinery.
class Node {
 public:
  /// Creates an element node with the given (interned) name.
  static std::unique_ptr<Node> MakeElement(NameId name);
  /// Creates an element node, interning `name`.
  static std::unique_ptr<Node> MakeElement(std::string_view name);
  /// Creates a text node with the given character data.
  static std::unique_ptr<Node> MakeText(std::string text);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Destruction is iterative (an explicit work-list instead of the
  /// default recursive member destructor), so freeing a pathologically
  /// deep tree cannot overflow the stack even when such a tree was built
  /// without resource limits.
  ~Node();

  /// Arena-aware allocation (see class comment). The sized/unsized
  /// deletes both understand the hidden arena header.
  static void* operator new(size_t size);
  static void operator delete(void* ptr) noexcept;
  static void operator delete(void* ptr, size_t size) noexcept;

  /// Nodes constructed on the calling thread since process start, arena
  /// and heap alike. The pipeline differences this around a document to
  /// report `mem_node_allocs` without a global atomic in the hot path.
  static uint64_t AllocationsOnThisThread();

  NodeType type() const { return type_; }
  bool is_element() const { return type_ == NodeType::kElement; }
  bool is_text() const { return type_ == NodeType::kText; }

  /// Interned element name id; kInvalidNameId for text nodes.
  NameId name_id() const { return name_id_; }
  /// Element name; empty for text nodes. The view points into the
  /// process-wide NameTable and never dangles.
  std::string_view name() const {
    return NameTable::Global().NameOf(name_id_);
  }
  /// Renames the element.
  void set_name(NameId name) { name_id_ = name; }
  void set_name(std::string_view name) {
    name_id_ = NameTable::Global().Intern(name);
  }

  /// Character data; empty for element nodes.
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  /// Non-owning parent pointer; null for a root.
  Node* parent() const { return parent_; }

  /// Attributes in document order.
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Returns the value of attribute `name`, or an empty view if absent.
  std::string_view attr(std::string_view name) const;
  /// True iff attribute `name` is present.
  bool has_attr(std::string_view name) const;
  /// Sets (or overwrites) attribute `name`.
  void set_attr(std::string_view name, std::string value);
  /// Removes attribute `name` if present.
  void remove_attr(std::string_view name);

  /// The paper's `val` attribute: text content carried by concept
  /// elements ("each HTML and XML element has an attribute named val of
  /// type CDATA", §2.3).
  std::string_view val() const { return attr("val"); }
  void set_val(std::string value) { set_attr("val", std::move(value)); }
  /// Appends `more` to the `val` attribute in place, inserting a single
  /// space separator when both sides are non-empty. Used by the concept
  /// instance rule to pass unidentified text up to the parent without
  /// loss. `more` may view this node's own `val`.
  void AppendVal(std::string_view more);

  /// Children in document order.
  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  size_t child_count() const { return children_.size(); }
  Node* child(size_t i) { return children_[i].get(); }
  const Node* child(size_t i) const { return children_[i].get(); }

  /// Index of `child` among this node's children. `child` must be a child.
  size_t IndexOf(const Node* child) const;

  /// Appends `child` and returns a raw pointer to it.
  Node* AddChild(std::unique_ptr<Node> child);
  /// Inserts `child` at position `index` (<= child_count()).
  Node* InsertChild(size_t index, std::unique_ptr<Node> child);
  /// Detaches and returns the child at `index`.
  std::unique_ptr<Node> RemoveChild(size_t index);
  /// Detaches and returns all children.
  std::vector<std::unique_ptr<Node>> RemoveAllChildren();
  /// Reserves room for `n` children, so a rule that detaches the
  /// children and adds the survivors back grows the list once.
  void ReserveChildren(size_t n) { children_.reserve(n); }
  /// Replaces the child at `index` with `replacement`; returns the old
  /// child.
  std::unique_ptr<Node> ReplaceChild(size_t index,
                                     std::unique_ptr<Node> replacement);

  /// Convenience: appends a fresh element child and returns it.
  Node* AddElement(NameId name);
  Node* AddElement(std::string_view name);
  /// Convenience: appends a fresh text child and returns it.
  Node* AddText(std::string text);

  /// Deep copy (parent of the copy is null). Iterative: cloning a tree
  /// deeper than the stack is safe, matching the destructor's guarantee.
  std::unique_ptr<Node> Clone() const;

  /// Number of nodes in this subtree, including this node. Iterative.
  size_t SubtreeSize() const;

  /// Depth of this node: 0 for a root, parent depth + 1 otherwise.
  size_t Depth() const;

  /// Pre-order traversal; `visit` is called for every node in the subtree.
  void PreOrder(const std::function<void(const Node&)>& visit) const;
  /// Pre-order traversal with mutable access.
  void PreOrderMutable(const std::function<void(Node&)>& visit);

  /// Structural equality: same type, name, text, attributes and children.
  friend bool operator==(const Node& a, const Node& b);

  /// Returns a compact single-line debug rendering, e.g.
  /// `resume(contact[val=..] education(degree date))`.
  std::string DebugString() const;

 private:
  explicit Node(NodeType type) : type_(type) {}

  NodeType type_;
  NameId name_id_ = kInvalidNameId;
  std::string text_;
  Node* parent_ = nullptr;
  std::vector<Attribute> attributes_;
  std::vector<std::unique_ptr<Node>> children_;
};

/// Size and shape of a subtree, gathered in one iterative walk (safe on
/// trees of any depth). Used by the resource guards to re-check trees
/// that grow between pipeline stages.
struct TreeStats {
  /// Nodes in the subtree, including the root.
  size_t node_count = 0;
  /// Depth of the deepest node relative to `root` (root itself = 0).
  size_t max_depth = 0;
};

/// Measures `root`'s subtree without recursion.
TreeStats MeasureTree(const Node& root);

}  // namespace webre

#endif  // WEBRE_XML_NODE_H_
