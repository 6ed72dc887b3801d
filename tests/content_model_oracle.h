// Reference implementation of DTD content-model matching and document
// validation: a recursive matcher over the particle tree that computes,
// for each sub-particle and start position, the set of end positions it
// can reach over the child-name sequence, comparing names as strings.
// Dtd's compiled Glushkov automata (xml/content_model.cc) and the
// validators built on them are checked against these functions
// (content_model_differential_test, dtd_test).

#ifndef WEBRE_TESTS_CONTENT_MODEL_ORACLE_H_
#define WEBRE_TESTS_CONTENT_MODEL_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "xml/dtd.h"
#include "xml/dtd_validator.h"
#include "xml/node.h"

namespace webre::oracle {

// Set of sequence positions 0..capacity-1 stored as a bitset. Every set
// created while matching one element shares the same capacity (child
// count + 1).
class PositionSet {
 public:
  explicit PositionSet(size_t num_positions)
      : words_((num_positions + 63) / 64, 0) {}

  void Insert(size_t pos) { words_[pos >> 6] |= uint64_t{1} << (pos & 63); }

  bool Contains(size_t pos) const { return (words_[pos >> 6] >> (pos & 63)) & 1; }

  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  void UnionWith(const PositionSet& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// Calls `fn(pos)` for every member in ascending order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      uint64_t bits = words_[i];
      while (bits != 0) {
        fn(i * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
        bits &= bits - 1;
      }
    }
  }

 private:
  std::vector<uint64_t> words_;
};

PositionSet MatchOnce(const ContentParticle& particle,
                      const std::vector<std::string_view>& names,
                      size_t start);

// Returns every end position reachable by matching `particle` (including
// its occurrence indicator) starting at `start`.
inline PositionSet MatchEnds(const ContentParticle& particle,
                             const std::vector<std::string_view>& names,
                             size_t start) {
  PositionSet once = MatchOnce(particle, names, start);
  switch (particle.occurrence) {
    case Occurrence::kOne:
      return once;
    case Occurrence::kOptional:
      once.Insert(start);
      return once;
    case Occurrence::kStar:
    case Occurrence::kPlus: {
      // Fixed-point closure over repetitions. Positions never decrease,
      // so the loop terminates; zero-progress matches are skipped so a
      // nullable particle cannot cycle.
      PositionSet reached = once;
      PositionSet frontier = once;
      while (!frontier.Empty()) {
        PositionSet next(names.size() + 1);
        frontier.ForEach([&](size_t pos) {
          MatchOnce(particle, names, pos).ForEach([&](size_t end) {
            if (end > pos && !reached.Contains(end)) {
              reached.Insert(end);
              next.Insert(end);
            }
          });
        });
        frontier = std::move(next);
      }
      if (particle.occurrence == Occurrence::kStar) reached.Insert(start);
      return reached;
    }
  }
  return once;
}

// Returns every position the particle (without its occurrence
// indicator) can consume up to, starting at `start`.
inline PositionSet MatchOnce(const ContentParticle& particle,
                             const std::vector<std::string_view>& names,
                             size_t start) {
  PositionSet ends(names.size() + 1);
  switch (particle.kind) {
    case ContentParticle::Kind::kElement:
      if (start < names.size() && names[start] == particle.name) {
        ends.Insert(start + 1);
      }
      break;
    case ContentParticle::Kind::kPcdata:
      // Text children are filtered out before matching; #PCDATA consumes
      // nothing from the element-child sequence.
      ends.Insert(start);
      break;
    case ContentParticle::Kind::kSequence: {
      PositionSet positions(names.size() + 1);
      positions.Insert(start);
      for (const ContentParticle& member : particle.children) {
        PositionSet next(names.size() + 1);
        positions.ForEach([&](size_t pos) {
          next.UnionWith(MatchEnds(member, names, pos));
        });
        positions = std::move(next);
        if (positions.Empty()) break;
      }
      ends = std::move(positions);
      break;
    }
    case ContentParticle::Kind::kChoice:
      for (const ContentParticle& member : particle.children) {
        ends.UnionWith(MatchEnds(member, names, start));
      }
      break;
  }
  return ends;
}

/// True iff the child-name sequence `names` matches `particle`.
inline bool Matches(const ContentParticle& particle,
                    const std::vector<std::string_view>& names) {
  return MatchEnds(particle, names, 0).Contains(names.size());
}

inline void ValidateElement(const Node& element, const Dtd& dtd,
                            DtdValidationResult& result) {
  const ElementDecl* decl = nullptr;
  for (const ElementDecl& candidate : dtd.elements()) {
    if (candidate.name == element.name()) decl = &candidate;
  }
  if (decl == nullptr) {
    result.violations.push_back(
        {std::string(element.name()),
         "element <" + std::string(element.name()) + "> is not declared"});
  } else if (!decl->pcdata_only) {
    std::vector<std::string_view> child_names;
    for (size_t i = 0; i < element.child_count(); ++i) {
      const Node* child = element.child(i);
      if (child->is_element()) child_names.push_back(child->name());
    }
    if (!Matches(decl->content, child_names)) {
      std::string got = "(";
      for (size_t i = 0; i < child_names.size(); ++i) {
        if (i > 0) got.append(", ");
        got.append(child_names[i]);
      }
      got.push_back(')');
      result.violations.push_back(
          {std::string(element.name()),
           "children " + got + " do not match content model " +
               decl->content.ToString()});
    }
  } else {
    for (size_t i = 0; i < element.child_count(); ++i) {
      if (element.child(i)->is_element()) {
        result.violations.push_back(
            {std::string(element.name()),
             "element <" + std::string(element.name()) +
                 "> is declared (#PCDATA) but has element children"});
        break;
      }
    }
  }
  for (size_t i = 0; i < element.child_count(); ++i) {
    const Node* child = element.child(i);
    if (child->is_element()) ValidateElement(*child, dtd, result);
  }
}

/// The reference ValidateAgainstDtd: same checks, same order, same
/// messages.
inline DtdValidationResult Validate(const Node& root, const Dtd& dtd) {
  DtdValidationResult result;
  if (!root.is_element()) {
    result.violations.push_back({"", "document root is not an element"});
    return result;
  }
  if (!dtd.root().empty() && root.name() != dtd.root()) {
    result.violations.push_back(
        {std::string(root.name()), "root element <" + std::string(root.name()) +
                                       "> does not match DTD root <" +
                                       dtd.root() + ">"});
  }
  ValidateElement(root, dtd, result);
  return result;
}

}  // namespace webre::oracle

#endif  // WEBRE_TESTS_CONTENT_MODEL_ORACLE_H_
