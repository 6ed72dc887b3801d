#ifndef WEBRE_CONCEPTS_INSTANCE_MATCHER_H_
#define WEBRE_CONCEPTS_INSTANCE_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "concepts/concept.h"

namespace webre {

/// The numeric shape of a word: `#year#`, `#num#`, `#ratio#`, or empty
/// when the word is not digit-like. Same rules as ExtractTokenFeatures
/// (kept here so concepts/ does not depend on classify/).
std::string_view NumericWordShape(std::string_view word);

/// A case-insensitive multi-pattern matcher over all instances of a
/// ConceptSet — the sub-linear replacement for the naive per-instance
/// rescan (ConceptSet::MatchAllNaive).
///
/// Keyword instances and concept names are compiled into one
/// Aho–Corasick automaton, lowered to a dense DFA over the bytes that
/// actually occur in patterns, so scanning is a single O(|text|) pass
/// with O(1) transitions plus output work proportional to the number of
/// hits. The naive scanner's word-boundary rule is applied as a
/// post-filter on each automaton hit, and shape instances
/// (`#num#`/`#year#`/`#ratio#`) are matched by one digit-run scan shared
/// across all shape patterns — so the candidate set is exactly the one
/// the naive scan produces.
///
/// Immutable after construction and therefore freely shareable across
/// threads. Emitted InstanceMatch::concept_name views point into names
/// owned by this matcher, so a match outlives the ConceptSet's own
/// storage as long as the matcher is alive.
class InstanceMatcher {
 public:
  /// Compiles the automaton for `concepts` (indices into this vector
  /// become InstanceMatch::concept_index). Each concept contributes its
  /// name plus every keyword instance as automaton patterns and every
  /// shape instance to the shape scan; empty patterns are ignored.
  explicit InstanceMatcher(const std::vector<Concept>& concepts);

  /// Appends every word-boundary keyword occurrence and every shape
  /// match in `text` to `out`. Candidates are unordered and may overlap;
  /// callers select among them (ConceptSet::MatchAll).
  void CollectCandidates(std::string_view text,
                         std::vector<InstanceMatch>& out) const;

  /// Number of DFA states (diagnostics / bench reporting).
  size_t state_count() const { return state_count_; }
  /// Number of compiled keyword patterns (after dedup).
  size_t pattern_count() const { return pattern_count_; }

 private:
  struct Output {
    uint32_t length;
    uint32_t concept_index;
  };
  struct ShapePattern {
    std::string shape;
    uint32_t concept_index;
  };

  // Dense DFA: transitions_[state * alphabet_size_ + symbol_[byte]].
  // Symbol 0 is "byte not in any pattern", whose transition is always
  // the root state.
  std::vector<int32_t> transitions_;
  // Per state, outputs_[output_begin_[s] .. output_begin_[s + 1]) in
  // the flat outputs_ vector (failure-link outputs pre-merged).
  std::vector<Output> outputs_;
  std::vector<uint32_t> output_begin_;
  uint8_t symbol_[256] = {};
  size_t alphabet_size_ = 1;
  size_t state_count_ = 1;
  size_t pattern_count_ = 0;

  std::vector<ShapePattern> shapes_;
  // Concept names owned here and their interned ids, indexed by
  // concept_index.
  std::vector<std::string> names_;
  std::vector<NameId> name_ids_;
};

}  // namespace webre

#endif  // WEBRE_CONCEPTS_INSTANCE_MATCHER_H_
