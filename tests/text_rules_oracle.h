#ifndef WEBRE_TESTS_TEXT_RULES_ORACLE_H_
#define WEBRE_TESTS_TEXT_RULES_ORACLE_H_

// Test oracle: the tokenization rule and the concept instance rule as
// two separate passes — every text piece first becomes a
// <TOKEN>text</TOKEN> node, then each TOKEN is recognized and replaced.
// ApplyTextRules fuses them into one pass that builds no TOKEN node and
// must produce the same tree, the same token count and the same
// InstanceRuleStats on every input (text_rules_differential_test).

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "constraints_oracle.h"
#include "restructure/text_rules.h"
#include "util/strings.h"
#include "xml/node.h"

namespace webre {
namespace oracle {
namespace detail {

inline size_t TokenizeUnder(Node* node, const TokenizeOptions& options,
                            NameId token_id,
                            std::vector<std::string_view>& pieces) {
  size_t created = 0;
  for (size_t i = 0; i < node->child_count();) {
    Node* child = node->child(i);
    if (child->is_element()) {
      created += TokenizeUnder(child, options, token_id, pieces);
      ++i;
      continue;
    }
    // Text node: replace by token nodes at the same position. The removed
    // node is kept alive until all views into its text are consumed; the
    // scratch vector is drained here before any recursive frame reuses it.
    std::unique_ptr<Node> removed = node->RemoveChild(i);
    pieces.clear();
    SplitAnyViews(removed->text(), options.delimiters, pieces);
    size_t insert_at = i;
    for (std::string_view piece : pieces) {
      std::string_view trimmed = StripAsciiWhitespace(piece);
      if (trimmed.empty()) continue;
      std::unique_ptr<Node> token = Node::MakeElement(token_id);
      token->AddText(std::string(trimmed));
      node->InsertChild(insert_at++, std::move(token));
      ++created;
    }
    i = insert_at;
  }
  return created;
}

}  // namespace detail

/// The tokenization rule (§2.3.1): every text node is replaced *in place*
/// by `n >= 1` `<TOKEN>text</TOKEN>` nodes, split at the delimiters.
/// Returns the number of token nodes created.
inline size_t ApplyTokenizationRule(Node* root,
                                    const TokenizeOptions& options = {}) {
  if (root == nullptr) return 0;
  std::vector<std::string_view> pieces;
  return detail::TokenizeUnder(root, options, InternName(kTokenTag), pieces);
}

namespace detail {

// Gathers the full text carried by a token node (its text children).
inline std::string TokenText(const Node& token) {
  std::string text;
  for (size_t i = 0; i < token.child_count(); ++i) {
    const Node* child = token.child(i);
    if (!child->is_text()) continue;
    if (!text.empty()) text.push_back(' ');
    text.append(child->text());
  }
  return text;
}

class InstanceRule {
 public:
  InstanceRule(const ConceptRecognizer& recognizer,
               const ConstraintSet* constraints)
      : recognizer_(recognizer),
        constraints_(constraints),
        token_id_(InternName(kTokenTag)) {}

  InstanceRuleStats Run(Node* root) {
    Process(root);
    return stats_;
  }

 private:
  void Process(Node* node) {
    for (size_t i = 0; i < node->child_count();) {
      Node* child = node->child(i);
      if (!child->is_element()) {
        ++i;
        continue;
      }
      if (child->name_id() != token_id_) {
        Process(child);
        ++i;
        continue;
      }
      i = HandleToken(node, i);
    }
  }

  // Processes the TOKEN at `index` under `parent`; returns the index at
  // which scanning should continue.
  size_t HandleToken(Node* parent, size_t index) {
    ++stats_.tokens_total;
    const std::string text = TokenText(*parent->child(index));
    std::vector<InstanceMatch> matches = recognizer_.Recognize(text);
    CoalesceSameConcept(matches);

    if (matches.empty()) {
      // Case 0: unidentified — delete the token, pass text to parent.
      parent->RemoveChild(index);
      parent->AppendVal(StripAsciiWhitespace(text));
      return index;
    }

    ++stats_.tokens_identified;
    if (matches.front().via_bayes) {
      ++stats_.tokens_via_bayes;
    } else {
      ++stats_.tokens_via_synonym;
    }

    if (matches.size() == 1) {
      // Case 1: the whole token becomes one concept element.
      std::unique_ptr<Node> element =
          Node::MakeElement(matches[0].concept_name);
      element->set_val(std::string(StripAsciiWhitespace(text)));
      parent->ReplaceChild(index, std::move(element));
      ++stats_.elements_created;
      return index + 1;
    }

    // Case 2: several instances — decompose the token. The text from one
    // identified instance up to the next belongs to the former; the
    // rightmost instance takes the remaining text; text before the first
    // instance is passed to the parent (§2.3.1).
    if (constraints_ != nullptr) RefineWithSiblingConstraints(matches);

    std::string before(
        StripAsciiWhitespace(text.substr(0, matches.front().position)));
    parent->AppendVal(before);

    parent->RemoveChild(index);
    size_t insert_at = index;
    for (size_t m = 0; m < matches.size(); ++m) {
      const size_t begin = matches[m].position;
      const size_t end =
          m + 1 < matches.size() ? matches[m + 1].position : text.size();
      std::unique_ptr<Node> element =
          Node::MakeElement(matches[m].concept_name);
      element->set_val(
          std::string(StripAsciiWhitespace(text.substr(begin, end - begin))));
      parent->InsertChild(insert_at++, std::move(element));
      ++stats_.elements_created;
    }
    return insert_at;
  }

  // Merges consecutive matches of the same concept into one: "June 1996"
  // or "June 1999 - Present" carry several DATE instances but describe a
  // single information object, so decomposing them would split one
  // concept's text across several elements.
  static void CoalesceSameConcept(std::vector<InstanceMatch>& matches) {
    std::vector<InstanceMatch> merged;
    for (const InstanceMatch& m : matches) {
      if (!merged.empty() &&
          merged.back().concept_index == m.concept_index) {
        merged.back().length =
            m.position + m.length - merged.back().position;
        continue;
      }
      merged.push_back(m);
    }
    matches = std::move(merged);
  }

  // Drops a match whose concept may not be a sibling of its predecessor's
  // concept (negated sibling constraints); its text then merges into the
  // predecessor's segment by virtue of segment boundaries being match
  // starts.
  void RefineWithSiblingConstraints(std::vector<InstanceMatch>& matches) {
    std::vector<InstanceMatch> kept;
    for (const InstanceMatch& m : matches) {
      if (!kept.empty() &&
          !oracle::SiblingAllowed(*constraints_, kept.back().concept_name,
                                  m.concept_name)) {
        ++stats_.segments_vetoed;
        continue;
      }
      kept.push_back(m);
    }
    matches = std::move(kept);
  }

  const ConceptRecognizer& recognizer_;
  const ConstraintSet* constraints_;
  const NameId token_id_;
  InstanceRuleStats stats_;
};

}  // namespace detail

/// The concept instance rule (§2.3.1) over the TOKEN nodes that
/// ApplyTokenizationRule produced.
inline InstanceRuleStats ApplyConceptInstanceRule(
    Node* root, const ConceptRecognizer& recognizer,
    const ConstraintSet* constraints = nullptr) {
  if (root == nullptr) return {};
  return detail::InstanceRule(recognizer, constraints).Run(root);
}

}  // namespace oracle
}  // namespace webre

#endif  // WEBRE_TESTS_TEXT_RULES_ORACLE_H_
