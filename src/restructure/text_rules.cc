#include "restructure/text_rules.h"

#include <memory>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace webre {

TextSplitter::TextSplitter(std::string_view delimiters) {
  for (int c = 0; c < 256; ++c) {
    class_[c] = IsAsciiSpace(static_cast<char>(c)) ? kSpace : kOther;
  }
  // A delimiter splits even when it is also whitespace.
  for (char c : delimiters) {
    class_[static_cast<unsigned char>(c)] = kDelimiter;
  }
}

TextSplitter::Count TextSplitter::CountText(std::string_view text) const {
  Count count;
  count.pieces = 1;
  bool filled = false;  // the current piece holds a non-space byte
  for (char c : text) {
    switch (ClassOf(c)) {
      case kDelimiter:
        ++count.pieces;
        count.tokens += filled;
        filled = false;
        break;
      case kOther:
        filled = true;
        break;
      case kSpace:
        break;
    }
  }
  count.tokens += filled;
  return count;
}

// Walked iteratively so a hostile tree cannot recurse past the stack
// before the guard that reads this measure fires.
TextMeasure MeasureText(const Node& root, const TextSplitter& splitter) {
  TextMeasure measure;
  std::vector<const Node*> pending{&root};
  while (!pending.empty()) {
    const Node* node = pending.back();
    pending.pop_back();
    ++measure.node_count;
    if (node->is_text()) {
      const TextSplitter::Count count = splitter.CountText(node->text());
      if (count.pieces > measure.worst_pieces) {
        measure.worst_pieces = count.pieces;
      }
      // Text is tokenized under its parent; a text root stays as it is.
      if (node != &root) measure.tokens += count.tokens;
      continue;
    }
    for (size_t i = 0; i < node->child_count(); ++i) {
      pending.push_back(node->child(i));
    }
  }
  return measure;
}

namespace {

class TextPass {
 public:
  TextPass(const TextSplitter& splitter, const ConceptRecognizer& recognizer,
           const ConstraintSet* constraints)
      : splitter_(splitter),
        recognizer_(recognizer),
        constraints_(constraints),
        token_id_(InternName(kTokenTag)) {}

  InstanceRuleStats Run(Node* root) {
    Process(root);
    return stats_;
  }

 private:
  void Process(Node* node) {
    bool has_tokens = false;
    for (size_t i = 0; i < node->child_count() && !has_tokens; ++i) {
      const Node* child = node->child(i);
      has_tokens = child->is_text() || child->name_id() == token_id_;
    }
    if (!has_tokens) {
      for (size_t i = 0; i < node->child_count(); ++i) Process(node->child(i));
      return;
    }

    // Detach the children once; survivors and new concept elements are
    // appended back in document order. The text given up to `node`
    // collects in pending_val_ past `val_begin` (deeper frames append
    // and truncate after it) and is written to `val` once.
    const size_t val_begin = pending_val_.size();
    std::vector<std::unique_ptr<Node>> children = node->RemoveAllChildren();
    node->ReserveChildren(children.size());
    for (std::unique_ptr<Node>& child : children) {
      if (child->is_text()) {
        splitter_.ForEachToken(child->text(), [&](std::string_view token) {
          HandleToken(node, token, val_begin);
        });
      } else if (child->name_id() == token_id_) {
        HandleToken(node, {}, val_begin);
      } else {
        Process(child.get());
        node->AddChild(std::move(child));
      }
    }
    if (pending_val_.size() > val_begin) {
      node->AppendVal(std::string_view(pending_val_).substr(val_begin));
      pending_val_.resize(val_begin);
    }
  }

  void GiveToParent(std::string_view text, size_t val_begin) {
    if (text.empty()) return;
    if (pending_val_.size() > val_begin) pending_val_.push_back(' ');
    pending_val_.append(text);
  }

  void AddConcept(Node* parent, NameId name, std::string_view text) {
    std::unique_ptr<Node> element = Node::MakeElement(name);
    element->set_val(std::string(text));
    parent->AddChild(std::move(element));
    ++stats_.elements_created;
  }

  // Applies the instance rule to one token of `parent`'s text.
  void HandleToken(Node* parent, std::string_view text, size_t val_begin) {
    ++stats_.tokens_total;
    recognizer_.RecognizeInto(text, scratch_, matches_);
    CoalesceSameConcept();

    if (matches_.empty()) {
      // Case 0: unidentified — the text goes to the parent.
      GiveToParent(text, val_begin);
      return;
    }

    ++stats_.tokens_identified;
    if (matches_.front().via_bayes) {
      ++stats_.tokens_via_bayes;
    } else {
      ++stats_.tokens_via_synonym;
    }

    if (matches_.size() == 1) {
      // Case 1: the whole token becomes one concept element.
      AddConcept(parent, matches_[0].concept_id, text);
      return;
    }

    // Case 2: several instances — decompose the token. The text from one
    // identified instance up to the next belongs to the former; the
    // rightmost instance takes the remaining text; text before the first
    // instance is passed to the parent (§2.3.1).
    if (constraints_ != nullptr) RefineWithSiblingConstraints();
    GiveToParent(StripAsciiWhitespace(text.substr(0, matches_[0].position)),
                 val_begin);
    for (size_t m = 0; m < matches_.size(); ++m) {
      const size_t begin = matches_[m].position;
      const size_t end =
          m + 1 < matches_.size() ? matches_[m + 1].position : text.size();
      AddConcept(parent, matches_[m].concept_id,
                 StripAsciiWhitespace(text.substr(begin, end - begin)));
    }
  }

  // Merges consecutive matches of the same concept into one: "June 1996"
  // or "June 1999 - Present" carry several DATE instances but describe a
  // single information object, so decomposing them would split one
  // concept's text across several elements.
  void CoalesceSameConcept() {
    size_t kept = 0;
    for (size_t i = 0; i < matches_.size(); ++i) {
      const InstanceMatch& m = matches_[i];
      if (kept > 0 && matches_[kept - 1].concept_index == m.concept_index) {
        InstanceMatch& last = matches_[kept - 1];
        last.length = m.position + m.length - last.position;
        continue;
      }
      matches_[kept++] = m;
    }
    matches_.resize(kept);
  }

  // Drops a match whose concept may not be a sibling of its predecessor's
  // concept (negated sibling constraints); its text then merges into the
  // predecessor's segment by virtue of segment boundaries being match
  // starts.
  void RefineWithSiblingConstraints() {
    size_t kept = 0;
    for (size_t i = 0; i < matches_.size(); ++i) {
      const InstanceMatch& m = matches_[i];
      if (kept > 0 && !constraints_->SiblingAllowed(
                          matches_[kept - 1].concept_id, m.concept_id)) {
        ++stats_.segments_vetoed;
        continue;
      }
      matches_[kept++] = m;
    }
    matches_.resize(kept);
  }

  const TextSplitter& splitter_;
  const ConceptRecognizer& recognizer_;
  const ConstraintSet* constraints_;
  const NameId token_id_;
  InstanceRuleStats stats_;
  // Buffers reused by every token of the document.
  MatchScratch scratch_;
  std::vector<InstanceMatch> matches_;
  std::string pending_val_;
};

}  // namespace

InstanceRuleStats ApplyTextRules(Node* root, const TextSplitter& splitter,
                                 const ConceptRecognizer& recognizer,
                                 const ConstraintSet* constraints) {
  if (root == nullptr) return {};
  return TextPass(splitter, recognizer, constraints).Run(root);
}

}  // namespace webre
