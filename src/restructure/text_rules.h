#ifndef WEBRE_RESTRUCTURE_TEXT_RULES_H_
#define WEBRE_RESTRUCTURE_TEXT_RULES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "concepts/constraints.h"
#include "restructure/recognizer.h"
#include "xml/node.h"

namespace webre {

/// Name of the element the paper's tokenization rule wraps every text
/// piece in (§2.3.1). The text pass builds no such element; it only
/// recognizes one that a caller-built tree already contains (see
/// ApplyTextRules).
inline constexpr char kTokenTag[] = "TOKEN";

/// Options for the tokenization half of the text pass.
struct TokenizeOptions {
  /// Punctuation delimiters at which topic sentences split; the paper's
  /// §4 annotation uses { ';' , ':' , ',' }.
  std::string delimiters = ";:,";
};

/// Statistics reported by the concept instance rule. The paper suggests
/// using "the ratio between identified and unidentifiable tokens ... as a
/// feedback to the user" (§2.3.1).
struct InstanceRuleStats {
  /// Tokens examined.
  size_t tokens_total = 0;
  /// Tokens converted into at least one concept element.
  size_t tokens_identified = 0;
  /// Identified tokens whose matches came from synonym/shape matching
  /// (recognizer strategy (1); tokens_via_synonym + tokens_via_bayes ==
  /// tokens_identified).
  size_t tokens_via_synonym = 0;
  /// Identified tokens classified by the Bayes recognizer (strategy (2),
  /// `InstanceMatch::via_bayes`).
  size_t tokens_via_bayes = 0;
  /// Concept elements created.
  size_t elements_created = 0;
  /// Multi-instance segments merged into their predecessor because a
  /// sibling constraint vetoed the decomposition (§2.3.1 refinement).
  size_t segments_vetoed = 0;

  /// Identified fraction in [0,1]; 1 when no tokens were seen.
  double IdentifiedRatio() const {
    return tokens_total == 0
               ? 1.0
               : static_cast<double>(tokens_identified) /
                     static_cast<double>(tokens_total);
  }
};

/// The tokenization rule's text splitting (§2.3.1) over one 256-entry
/// byte-class table: a text splits at every delimiter byte, each piece
/// is trimmed of ASCII whitespace, and empty pieces yield no token.
/// Built once per converter (or crawler) and shared read-only.
class TextSplitter {
 public:
  explicit TextSplitter(std::string_view delimiters);

  /// Calls `visit(token)` for every non-empty trimmed piece of `text`,
  /// in order — the text each TOKEN of the tokenization rule carried.
  /// The views point into `text`.
  template <typename Visit>
  void ForEachToken(std::string_view text, Visit&& visit) const {
    const size_t size = text.size();
    size_t begin = 0;
    for (size_t i = 0; i <= size; ++i) {
      if (i < size && ClassOf(text[i]) != kDelimiter) continue;
      size_t first = begin;
      size_t last = i;
      while (first < last && ClassOf(text[first]) == kSpace) ++first;
      while (last > first && ClassOf(text[last - 1]) == kSpace) --last;
      if (last > first) visit(text.substr(first, last - first));
      begin = i + 1;
    }
  }

  /// What splitting one text yields, counted without building anything.
  struct Count {
    /// Delimiter occurrences + 1 (the guard's per-text bound).
    size_t pieces = 0;
    /// Pieces ForEachToken visits (non-empty after trimming).
    size_t tokens = 0;
  };
  Count CountText(std::string_view text) const;

 private:
  enum ByteClass : uint8_t { kOther = 0, kSpace = 1, kDelimiter = 2 };

  ByteClass ClassOf(char c) const {
    return static_cast<ByteClass>(class_[static_cast<unsigned char>(c)]);
  }

  uint8_t class_[256];
};

/// What the tokenization rule would do to a whole tree, measured in one
/// iterative walk (safe on trees of any depth) before the text pass.
struct TextMeasure {
  /// Nodes visited: the tree size entering the text pass.
  size_t node_count = 0;
  /// The most pieces one text node splits into (delimiters + 1).
  size_t worst_pieces = 0;
  /// Tokens over every text node below the root: the TOKEN nodes the
  /// tokenization rule created, each charged as two nodes (the element
  /// and its text child) against the resource budget.
  size_t tokens = 0;
};
TextMeasure MeasureText(const Node& root, const TextSplitter& splitter);

/// The tokenization rule and the concept instance rule (§2.3.1) as one
/// top-down pass that builds no TOKEN node. For every element with text
/// children, each text is split into tokens (TextSplitter) and each
/// token is handed to `recognizer`:
///
///  1. exactly one instance identified: the token becomes
///     `<C val="token text"/>`;
///  2. several instances identified: the token is decomposed — each
///     segment from one identified instance up to the next becomes its
///     own `<Ci val="segment"/>`, text before the first instance is
///     passed to the parent's `val`;
///  0. no instance identified: the token's text is passed to the
///     parent's `val` attribute, so no information is lost.
///
/// Concept elements take the text's place among the element's children;
/// element children are processed where they stand. Consecutive matches
/// of one concept describe one object and coalesce. `constraints` is
/// optional; when provided, a segment whose concept may not be a sibling
/// of the previous segment's concept merges into the previous segment.
///
/// An element already named TOKEN (a caller-built tree) is taken for a
/// token without text of its own, as the two separate rules took it: its
/// subtree's text was tokenized inside it, then the whole subtree gave
/// way to whatever the recognizer made of the empty text.
InstanceRuleStats ApplyTextRules(Node* root, const TextSplitter& splitter,
                                 const ConceptRecognizer& recognizer,
                                 const ConstraintSet* constraints = nullptr);

}  // namespace webre

#endif  // WEBRE_RESTRUCTURE_TEXT_RULES_H_
