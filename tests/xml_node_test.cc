#include <gtest/gtest.h>

#include "xml/node.h"

namespace webre {
namespace {

TEST(NodeTest, MakeElementAndText) {
  auto e = Node::MakeElement("resume");
  EXPECT_TRUE(e->is_element());
  EXPECT_EQ(e->name(), "resume");
  auto t = Node::MakeText("hello");
  EXPECT_TRUE(t->is_text());
  EXPECT_EQ(t->text(), "hello");
}

TEST(NodeTest, AddChildSetsParent) {
  auto root = Node::MakeElement("a");
  Node* child = root->AddElement("b");
  EXPECT_EQ(child->parent(), root.get());
  EXPECT_EQ(root->child_count(), 1u);
  EXPECT_EQ(root->child(0), child);
}

TEST(NodeTest, InsertChildAtPosition) {
  auto root = Node::MakeElement("a");
  root->AddElement("x");
  root->AddElement("z");
  root->InsertChild(1, Node::MakeElement("y"));
  EXPECT_EQ(root->child(0)->name(), "x");
  EXPECT_EQ(root->child(1)->name(), "y");
  EXPECT_EQ(root->child(2)->name(), "z");
}

TEST(NodeTest, RemoveChildDetaches) {
  auto root = Node::MakeElement("a");
  root->AddElement("b");
  root->AddElement("c");
  std::unique_ptr<Node> removed = root->RemoveChild(0);
  EXPECT_EQ(removed->name(), "b");
  EXPECT_EQ(removed->parent(), nullptr);
  EXPECT_EQ(root->child_count(), 1u);
  EXPECT_EQ(root->child(0)->name(), "c");
}

TEST(NodeTest, ReplaceChildReturnsOld) {
  auto root = Node::MakeElement("a");
  root->AddElement("old");
  std::unique_ptr<Node> old =
      root->ReplaceChild(0, Node::MakeElement("new"));
  EXPECT_EQ(old->name(), "old");
  EXPECT_EQ(old->parent(), nullptr);
  EXPECT_EQ(root->child(0)->name(), "new");
  EXPECT_EQ(root->child(0)->parent(), root.get());
}

TEST(NodeTest, RemoveAllChildren) {
  auto root = Node::MakeElement("a");
  root->AddElement("b");
  root->AddText("t");
  auto children = root->RemoveAllChildren();
  EXPECT_EQ(children.size(), 2u);
  EXPECT_EQ(root->child_count(), 0u);
  EXPECT_EQ(children[0]->parent(), nullptr);
}

TEST(NodeTest, AttributesSetGetRemove) {
  auto e = Node::MakeElement("e");
  EXPECT_FALSE(e->has_attr("val"));
  EXPECT_EQ(e->attr("val"), "");
  e->set_attr("val", "x");
  EXPECT_TRUE(e->has_attr("val"));
  EXPECT_EQ(e->attr("val"), "x");
  e->set_attr("val", "y");  // overwrite
  EXPECT_EQ(e->attr("val"), "y");
  EXPECT_EQ(e->attributes().size(), 1u);
  e->remove_attr("val");
  EXPECT_FALSE(e->has_attr("val"));
}

TEST(NodeTest, AppendValInsertsSeparator) {
  auto e = Node::MakeElement("e");
  e->AppendVal("first");
  EXPECT_EQ(e->val(), "first");
  e->AppendVal("second");
  EXPECT_EQ(e->val(), "first second");
  e->AppendVal("");  // no-op
  EXPECT_EQ(e->val(), "first second");
}

TEST(NodeTest, AppendValMayViewItsOwnVal) {
  // AppendVal grows `val` in place; the view it appends may point into
  // the very buffer that grows (and reallocates).
  auto e = Node::MakeElement("e");
  const std::string word(40, 'w');
  e->set_val(word);
  e->AppendVal(e->val());
  EXPECT_EQ(e->val(), word + " " + word);
  std::string expected(e->val());
  for (int round = 0; round < 6; ++round) {
    const std::string_view tail = e->val().substr(e->val().size() / 3);
    expected = expected + " " + std::string(tail);
    e->AppendVal(tail);
    ASSERT_EQ(e->val(), expected) << "round " << round;
  }
  // A view of another attribute of the same node, added before `val`
  // exists, survives the attribute list growing.
  auto f = Node::MakeElement("f");
  f->set_attr("class", "short");
  f->AppendVal(f->attr("class"));
  EXPECT_EQ(f->val(), "short");
  EXPECT_EQ(f->attributes().size(), 2u);
  EXPECT_EQ(f->attributes()[1].name, "val");
}

TEST(NodeTest, IndexOf) {
  auto root = Node::MakeElement("a");
  root->AddElement("b");
  Node* c = root->AddElement("c");
  EXPECT_EQ(root->IndexOf(c), 1u);
}

TEST(NodeTest, CloneIsDeepAndDetached) {
  auto root = Node::MakeElement("a");
  root->set_val("v");
  Node* child = root->AddElement("b");
  child->AddText("inner");
  auto copy = root->Clone();
  EXPECT_EQ(copy->parent(), nullptr);
  EXPECT_TRUE(*copy == *root);
  // Mutating the copy leaves the original untouched.
  copy->child(0)->set_name("changed");
  EXPECT_EQ(root->child(0)->name(), "b");
}

TEST(NodeTest, CloneAndSubtreeSizeSurviveExtremeDepth) {
  // Clone, SubtreeSize and the destructor are all iterative; a chain two
  // orders of magnitude past the ResourceLimits::max_tree_depth cap
  // (512) must not overflow the call stack. Trees this deep reach the
  // node layer via Clone() of already-built documents, which is not
  // budget-guarded the way parsing is.
  constexpr size_t kDepth = 50000;
  auto root = Node::MakeElement("a");
  Node* tip = root.get();
  for (size_t i = 0; i < kDepth; ++i) tip = tip->AddElement("d");
  tip->AddText("leaf");
  ASSERT_EQ(root->SubtreeSize(), kDepth + 2);

  auto copy = root->Clone();
  EXPECT_EQ(copy->parent(), nullptr);
  ASSERT_EQ(copy->SubtreeSize(), kDepth + 2);
  const Node* walk = copy.get();
  while (walk->child_count() == 1 && walk->child(0)->is_element()) {
    walk = walk->child(0);
  }
  ASSERT_EQ(walk->child_count(), 1u);
  EXPECT_EQ(walk->child(0)->text(), "leaf");
}

TEST(NodeTest, EqualityStructural) {
  auto a = Node::MakeElement("x");
  a->AddElement("y")->set_val("1");
  auto b = Node::MakeElement("x");
  b->AddElement("y")->set_val("1");
  EXPECT_TRUE(*a == *b);
  b->child(0)->set_val("2");
  EXPECT_FALSE(*a == *b);
}

TEST(NodeTest, SubtreeSizeAndDepth) {
  auto root = Node::MakeElement("a");
  Node* b = root->AddElement("b");
  Node* c = b->AddElement("c");
  b->AddText("t");
  EXPECT_EQ(root->SubtreeSize(), 4u);
  EXPECT_EQ(root->Depth(), 0u);
  EXPECT_EQ(c->Depth(), 2u);
}

TEST(NodeTest, PreOrderVisitsAllInOrder) {
  auto root = Node::MakeElement("a");
  root->AddElement("b")->AddElement("c");
  root->AddElement("d");
  std::vector<std::string> names;
  root->PreOrder([&](const Node& n) { names.emplace_back(n.name()); });
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(names[2], "c");
  EXPECT_EQ(names[3], "d");
}

TEST(NodeTest, DebugStringShape) {
  auto root = Node::MakeElement("a");
  Node* b = root->AddElement("b");
  b->set_val("v");
  root->AddText("t");
  EXPECT_EQ(root->DebugString(), "a(b[val=v] \"t\")");
}

}  // namespace
}  // namespace webre
