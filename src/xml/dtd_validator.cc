#include "xml/dtd_validator.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace webre {
namespace {

// Set of sequence positions 0..capacity-1 stored as a bitset. Content-model
// matching walks position sets heavily (one per particle per start
// position); inline storage covers any realistic element fan-out so the
// whole match usually touches the heap zero times. Every set created while
// matching one element shares the same capacity (child count + 1).
class PositionSet {
 public:
  explicit PositionSet(size_t num_positions)
      : num_words_((num_positions + 63) / 64) {
    if (num_words_ > kInlineWords) heap_.assign(num_words_, 0);
  }

  void Insert(size_t pos) { words()[pos >> 6] |= uint64_t{1} << (pos & 63); }

  bool Contains(size_t pos) const {
    return (words()[pos >> 6] >> (pos & 63)) & 1;
  }

  bool Empty() const {
    const uint64_t* w = words();
    for (size_t i = 0; i < num_words_; ++i) {
      if (w[i] != 0) return false;
    }
    return true;
  }

  void UnionWith(const PositionSet& other) {
    uint64_t* w = words();
    const uint64_t* o = other.words();
    for (size_t i = 0; i < num_words_; ++i) w[i] |= o[i];
  }

  /// Calls `fn(pos)` for every member in ascending order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    const uint64_t* w = words();
    for (size_t i = 0; i < num_words_; ++i) {
      uint64_t bits = w[i];
      while (bits != 0) {
        fn(i * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
        bits &= bits - 1;
      }
    }
  }

 private:
  static constexpr size_t kInlineWords = 4;  // 256 positions inline

  uint64_t* words() { return heap_.empty() ? inline_ : heap_.data(); }
  const uint64_t* words() const {
    return heap_.empty() ? inline_ : heap_.data();
  }

  size_t num_words_;
  uint64_t inline_[kInlineWords] = {};
  std::vector<uint64_t> heap_;
};

// Returns every position the particle (without its occurrence indicator)
// can consume up to, starting at `start`, over the child-name sequence.
PositionSet MatchOnce(const ContentParticle& particle,
                      const std::vector<std::string_view>& names,
                      size_t start);

// Returns every end position reachable by matching `particle` (including
// its occurrence indicator) starting at `start`.
PositionSet MatchEnds(const ContentParticle& particle,
                      const std::vector<std::string_view>& names,
                      size_t start) {
  PositionSet once = MatchOnce(particle, names, start);
  switch (particle.occurrence) {
    case Occurrence::kOne:
      return once;
    case Occurrence::kOptional: {
      once.Insert(start);
      return once;
    }
    case Occurrence::kStar:
    case Occurrence::kPlus: {
      // Fixed-point closure over repetitions. Positions never decrease, so
      // the loop terminates; skip zero-progress matches to avoid cycling on
      // nullable particles.
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

PositionSet MatchOnce(const ContentParticle& particle,
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

void ValidateElement(const Node& element, const Dtd& dtd,
                     DtdValidationResult& result) {
  const ElementDecl* decl = dtd.Find(element.name());
  if (decl == nullptr) {
    result.violations.push_back(
        {std::string(element.name()),
         "element <" + std::string(element.name()) + "> is not declared"});
  } else if (!decl->pcdata_only) {
    // Views into the children's own names — valid for the whole match.
    std::vector<std::string_view> child_names;
    for (size_t i = 0; i < element.child_count(); ++i) {
      const Node* child = element.child(i);
      if (child->is_element()) child_names.push_back(child->name());
    }
    PositionSet ends = MatchEnds(decl->content, child_names, 0);
    if (!ends.Contains(child_names.size())) {
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

}  // namespace

DtdValidationResult ValidateAgainstDtd(const Node& root, const Dtd& dtd) {
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

bool ConformsToDtd(const Node& root, const Dtd& dtd) {
  if (!root.is_element()) return false;
  if (!dtd.root().empty() && root.name() != dtd.root()) return false;
  // The checks of ValidateElement, stopping at the first violation and
  // building no message. Iterative; one child-name buffer serves every
  // element.
  std::vector<std::string_view> child_names;
  std::vector<const Node*> pending{&root};
  while (!pending.empty()) {
    const Node& element = *pending.back();
    pending.pop_back();
    const ElementDecl* decl = dtd.Find(element.name());
    if (decl == nullptr) return false;
    child_names.clear();
    for (size_t i = 0; i < element.child_count(); ++i) {
      const Node* child = element.child(i);
      if (!child->is_element()) continue;
      child_names.push_back(child->name());
      pending.push_back(child);
    }
    if (decl->pcdata_only) {
      if (!child_names.empty()) return false;
    } else if (!MatchEnds(decl->content, child_names, 0)
                    .Contains(child_names.size())) {
      return false;
    }
  }
  return true;
}

}  // namespace webre
