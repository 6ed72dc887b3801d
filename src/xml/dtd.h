#ifndef WEBRE_XML_DTD_H_
#define WEBRE_XML_DTD_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "xml/name_table.h"

namespace webre {

/// Occurrence indicator attached to a content particle.
enum class Occurrence {
  kOne,       ///< exactly once (no indicator)
  kOptional,  ///< `?`
  kStar,      ///< `*`
  kPlus,      ///< `+`
};

/// Returns "", "?", "*" or "+".
std::string_view OccurrenceSuffix(Occurrence occ);

/// A node of the DTD content-model expression
///   alpha := e | #PCDATA | (alpha, alpha, ...) | (alpha | alpha | ...)
/// each optionally decorated with an occurrence indicator (§3.3).
struct ContentParticle {
  enum class Kind {
    kElement,   ///< a child element name
    kPcdata,    ///< literal #PCDATA
    kSequence,  ///< comma-separated group
    kChoice,    ///< pipe-separated group
  };

  Kind kind = Kind::kElement;
  Occurrence occurrence = Occurrence::kOne;
  /// Element name; only for kElement.
  std::string name;
  /// Group members; only for kSequence/kChoice.
  std::vector<ContentParticle> children;

  /// Leaf particle for element `name`.
  static ContentParticle Element(std::string name,
                                 Occurrence occ = Occurrence::kOne);
  /// The #PCDATA particle.
  static ContentParticle Pcdata();
  /// Sequence group over `children`.
  static ContentParticle Sequence(std::vector<ContentParticle> children,
                                  Occurrence occ = Occurrence::kOne);
  /// Choice group over `children`.
  static ContentParticle Choice(std::vector<ContentParticle> children,
                                Occurrence occ = Occurrence::kOne);

  /// Renders the particle as DTD syntax, e.g. `(contact+, objective?)`.
  std::string ToString() const;

  friend bool operator==(const ContentParticle& a, const ContentParticle& b);
};

/// A content model compiled to its Glushkov position automaton over
/// interned names: one position per element leaf of the particle, and
/// per position the set of positions that may follow it. Matching a
/// child-name sequence is a left-to-right simulation of the set of
/// positions reachable so far, held as a bitset — one uint64_t for
/// models of up to 64 element leaves, heap words above that. The follow
/// table takes positions² bits. Accepts exactly the language of the particle: `?`, `*` and `+` as in
/// regular expressions, #PCDATA as the empty sequence (text children are
/// filtered out before matching), an empty sequence as the empty
/// sequence and an empty choice as nothing.
class ContentAutomaton {
 public:
  /// The automaton of the empty content model: accepts only the empty
  /// sequence.
  ContentAutomaton() = default;
  explicit ContentAutomaton(const ContentParticle& particle);

  /// True iff the element-child name sequence `children` matches.
  bool Accepts(std::span<const NameId> children) const;

  /// Number of element positions (leaves of the particle).
  size_t position_count() const { return symbol_of_.size(); }

 private:
  struct Sets;
  Sets Build(const ContentParticle& particle);
  // The positions labelled `name`, or null when no leaf names it.
  const uint64_t* MaskOf(NameId name) const;

  size_t words_ = 0;        // 64-bit words per position set
  bool nullable_ = true;    // accepts the empty sequence
  std::vector<NameId> symbol_of_;     // per position, its element name
  std::vector<NameId> symbols_;       // distinct names, ascending
  std::vector<uint64_t> symbol_masks_;  // per symbol, words_ words
  std::vector<uint64_t> first_;       // words_ words
  std::vector<uint64_t> last_;        // words_ words
  std::vector<uint64_t> follow_;      // per position, words_ words
};

/// Declaration of one element type.
struct ElementDecl {
  std::string name;
  /// When true the element has content `(#PCDATA)` only (a leaf in the
  /// majority schema); `content` is ignored.
  bool pcdata_only = false;
  ContentParticle content;

  /// Renders as `<!ELEMENT name (...)>`.
  std::string ToString() const;
};

/// A document type definition: a root element name plus element
/// declarations in document order. This is the output format of the
/// majority-schema-to-DTD derivation (§3.3).
class Dtd {
 public:
  Dtd() = default;

  /// Sentinel returned by IndexOf for undeclared names.
  static constexpr size_t kNotDeclared = static_cast<size_t>(-1);

  /// The document element name.
  const std::string& root() const { return root_; }
  /// Interned root(); kInvalidNameId when root() is empty.
  NameId root_id() const { return root_id_; }
  void set_root(std::string root);

  /// Declarations in insertion order.
  const std::vector<ElementDecl>& elements() const { return elements_; }

  /// Adds (or replaces) the declaration for `decl.name` and compiles its
  /// content model.
  void AddElement(ElementDecl decl);

  /// Returns the declaration for `name`, or null if undeclared.
  const ElementDecl* Find(std::string_view name) const;

  /// Index into elements() of the declaration for `name`, or
  /// kNotDeclared.
  size_t IndexOf(NameId name) const;

  /// The compiled content model of elements()[i]; for a (#PCDATA)-only
  /// declaration it accepts only the empty child sequence.
  const ContentAutomaton& content_model(size_t i) const { return models_[i]; }

  /// Renders the whole DTD as `<!ELEMENT ...>` lines. With
  /// `include_attlist`, every element also gets
  /// `<!ATTLIST name val CDATA #IMPLIED>` — the paper's convention that
  /// "each HTML and XML element has an attribute named val of type
  /// CDATA" (§2.3).
  std::string ToString(bool include_attlist = false) const;

 private:
  std::string root_;
  NameId root_id_ = kInvalidNameId;
  std::vector<ElementDecl> elements_;
  std::vector<ContentAutomaton> models_;  // parallel to elements_
  std::unordered_map<NameId, size_t> index_;
};

}  // namespace webre

#endif  // WEBRE_XML_DTD_H_
