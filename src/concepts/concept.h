#ifndef WEBRE_CONCEPTS_CONCEPT_H_
#define WEBRE_CONCEPTS_CONCEPT_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "xml/name_table.h"

namespace webre {

class InstanceMatcher;

/// A topic-specific concept (§2.2): the element-name vocabulary for the
/// XML documents produced by document conversion, together with its
/// *concept instances* — "text patterns and keywords as they might occur
/// in topic specific HTML documents".
///
/// Two kinds of instances are supported:
///  - keyword instances ("University", "B.S.") match case-insensitively
///    at word boundaries inside a token;
///  - shape instances, written `#year#`, `#num#` or `#ratio#`, match a
///    word of that numeric shape (see ExtractTokenFeatures), so DATE can
///    match "June 1996" via `#year#` and GPA can match "3.8/4.0" via
///    `#ratio#` without enumerating every number.
struct Concept {
  /// Element name used in output XML documents; by convention uppercase
  /// so concept elements never collide with lowercased HTML tags.
  std::string name;
  /// Concept instances. The concept's own name is always treated as an
  /// implicit additional instance (§2.2: the instance set "also includes
  /// the name of the concept").
  std::vector<std::string> instances;

  /// True if `instance` is a shape pattern (`#...#`).
  static bool IsShapeInstance(std::string_view instance);
};

/// One located match of a concept instance inside a token's text.
struct InstanceMatch {
  /// Index into the owning ConceptSet.
  size_t concept_index = 0;
  /// Concept name (uppercase).
  std::string_view concept_name;
  /// Byte offset of the match in the searched text.
  size_t position = 0;
  /// Byte length of the matched text.
  size_t length = 0;
  /// True when the match came from the Bayes classifier rather than
  /// synonym/shape matching (observability: the per-rule counters split
  /// identified tokens by recognizer, §2.3.1's two strategies).
  bool via_bayes = false;
  /// Interned concept name, so the instance rule creates the concept's
  /// element without hashing its name.
  NameId concept_id = kInvalidNameId;
};

/// Reusable candidate buffer for ConceptSet::MatchAllInto, so a caller
/// matching every token of a document allocates once per document
/// instead of once per token.
struct MatchScratch {
  std::vector<InstanceMatch> candidates;
};

/// The set `Con` of topic concepts provided by the user (§2.2).
///
/// Mutation (Add) is setup-time only; every const member is safe to call
/// from concurrent threads once the set is built, which is what lets the
/// parallel pipeline share one ConceptSet across workers.
class ConceptSet {
 public:
  /// Sentinel returned by IndexOf for unknown names.
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  ConceptSet() = default;

  /// Adds a concept. Names must be unique; a duplicate name replaces the
  /// previous definition. Rebuilds the instance matcher, so adds are
  /// O(total instances) — fine for setup-time concept-set construction.
  void Add(Concept concept_def);

  size_t size() const { return concepts_.size(); }
  bool empty() const { return concepts_.empty(); }
  const Concept& at(size_t i) const { return concepts_[i]; }
  /// The interned name of concept `i`.
  NameId name_id(size_t i) const { return name_ids_[i]; }
  const std::vector<Concept>& concepts() const { return concepts_; }

  /// Returns the index of the concept named `name` (case-sensitive), or
  /// kNpos. O(1) via the name index.
  size_t IndexOf(std::string_view name) const;
  /// Returns the concept named `name` (case-sensitive), or null.
  const Concept* Find(std::string_view name) const;
  /// True iff `name` names a concept in this set.
  bool Contains(std::string_view name) const;

  /// Total number of instances across all concepts (implicit name
  /// instances not counted).
  size_t TotalInstanceCount() const;

  /// Finds all non-overlapping concept-instance matches in `text`,
  /// sorted by position. Overlaps are resolved in favour of longer
  /// matches, then earlier ones; at most one match is reported per text
  /// span. This powers the concept instance rule (§2.3.1), including the
  /// multi-instance token decomposition case.
  ///
  /// Backed by the Aho–Corasick InstanceMatcher: one O(|text|) automaton
  /// sweep instead of a rescan per instance.
  std::vector<InstanceMatch> MatchAll(std::string_view text) const;

  /// MatchAll into caller-owned buffers: `out` is overwritten with the
  /// same matches MatchAll returns, and `scratch` holds the candidates.
  void MatchAllInto(std::string_view text, MatchScratch& scratch,
                    std::vector<InstanceMatch>& out) const;

  /// Reference implementation of MatchAll: the original per-instance
  /// O(|text| × Σ|instance|) scan. Kept for differential testing and the
  /// matcher micro-bench; results are identical to MatchAll.
  std::vector<InstanceMatch> MatchAllNaive(std::string_view text) const;

  /// Convenience: the first (leftmost) match, or a match with
  /// `length == 0` if none.
  InstanceMatch MatchFirst(std::string_view text) const;

  /// The compiled matcher (null for an empty set); exposed for bench
  /// diagnostics.
  const InstanceMatcher* matcher() const { return matcher_.get(); }

 private:
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<Concept> concepts_;
  /// Interned concept names, parallel to concepts_.
  std::vector<NameId> name_ids_;
  /// name → index into concepts_, kept in sync by Add.
  std::unordered_map<std::string, size_t, TransparentHash, std::equal_to<>>
      index_;
  /// Immutable compiled matcher, rebuilt by Add and shared by copies of
  /// this set (it owns its own copies of the concept names).
  std::shared_ptr<const InstanceMatcher> matcher_;
};

}  // namespace webre

#endif  // WEBRE_CONCEPTS_CONCEPT_H_
