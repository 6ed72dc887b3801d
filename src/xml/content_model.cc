// Glushkov compilation and bitset simulation of DTD content models.

#include <algorithm>

#include "xml/dtd.h"

namespace webre {
namespace {

using Bits = std::vector<uint64_t>;

void SetBit(uint64_t* words, size_t pos) {
  words[pos >> 6] |= uint64_t{1} << (pos & 63);
}

void OrInto(uint64_t* dst, const uint64_t* src, size_t words) {
  for (size_t w = 0; w < words; ++w) dst[w] |= src[w];
}

/// Calls `fn(pos)` for every set bit of `words[0, count)`.
template <typename Fn>
void ForEachBit(const uint64_t* words, size_t count, Fn fn) {
  for (size_t w = 0; w < count; ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      fn(w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
      bits &= bits - 1;
    }
  }
}

size_t CountPositions(const ContentParticle& particle) {
  if (particle.kind == ContentParticle::Kind::kElement) return 1;
  size_t count = 0;
  for (const ContentParticle& child : particle.children) {
    count += CountPositions(child);
  }
  return count;
}

}  // namespace

/// Glushkov sets of one sub-particle: whether it matches the empty
/// sequence, and the positions that can begin and end a match.
struct ContentAutomaton::Sets {
  bool nullable = true;
  Bits first;
  Bits last;
};

ContentAutomaton::ContentAutomaton(const ContentParticle& particle) {
  const size_t positions = CountPositions(particle);
  words_ = (positions + 63) / 64;
  symbol_of_.reserve(positions);
  follow_.assign(positions * words_, 0);
  Sets sets = Build(particle);
  nullable_ = sets.nullable;
  first_ = std::move(sets.first);
  last_ = std::move(sets.last);

  symbols_ = symbol_of_;
  std::sort(symbols_.begin(), symbols_.end());
  symbols_.erase(std::unique(symbols_.begin(), symbols_.end()),
                 symbols_.end());
  symbol_masks_.assign(symbols_.size() * words_, 0);
  for (size_t pos = 0; pos < positions; ++pos) {
    const size_t k = static_cast<size_t>(
        std::lower_bound(symbols_.begin(), symbols_.end(), symbol_of_[pos]) -
        symbols_.begin());
    SetBit(&symbol_masks_[k * words_], pos);
  }
}

ContentAutomaton::Sets ContentAutomaton::Build(
    const ContentParticle& particle) {
  Sets out;
  out.first.assign(words_, 0);
  out.last.assign(words_, 0);
  // Every position in `from` may be followed by every position in `to`.
  auto link = [&](const Bits& from, const Bits& to) {
    ForEachBit(from.data(), words_, [&](size_t pos) {
      OrInto(&follow_[pos * words_], to.data(), words_);
    });
  };
  switch (particle.kind) {
    case ContentParticle::Kind::kElement: {
      const size_t pos = symbol_of_.size();
      symbol_of_.push_back(InternName(particle.name));
      SetBit(out.first.data(), pos);
      SetBit(out.last.data(), pos);
      out.nullable = false;
      break;
    }
    case ContentParticle::Kind::kPcdata:
      // Text children are filtered out before matching; #PCDATA
      // consumes nothing from the element-child sequence.
      break;
    case ContentParticle::Kind::kSequence:
      for (const ContentParticle& member : particle.children) {
        Sets sets = Build(member);
        link(out.last, sets.first);
        if (out.nullable) OrInto(out.first.data(), sets.first.data(), words_);
        if (sets.nullable) {
          OrInto(sets.last.data(), out.last.data(), words_);
        }
        out.last = std::move(sets.last);
        out.nullable = out.nullable && sets.nullable;
      }
      break;
    case ContentParticle::Kind::kChoice:
      out.nullable = false;  // an empty choice matches nothing
      for (const ContentParticle& member : particle.children) {
        Sets sets = Build(member);
        OrInto(out.first.data(), sets.first.data(), words_);
        OrInto(out.last.data(), sets.last.data(), words_);
        out.nullable = out.nullable || sets.nullable;
      }
      break;
  }
  switch (particle.occurrence) {
    case Occurrence::kOne:
      break;
    case Occurrence::kOptional:
      out.nullable = true;
      break;
    case Occurrence::kStar:
      link(out.last, out.first);
      out.nullable = true;
      break;
    case Occurrence::kPlus:
      link(out.last, out.first);
      break;
  }
  return out;
}

const uint64_t* ContentAutomaton::MaskOf(NameId name) const {
  auto it = std::lower_bound(symbols_.begin(), symbols_.end(), name);
  if (it == symbols_.end() || *it != name) return nullptr;
  return &symbol_masks_[static_cast<size_t>(it - symbols_.begin()) * words_];
}

bool ContentAutomaton::Accepts(std::span<const NameId> children) const {
  if (children.empty()) return nullable_;
  const uint64_t* mask = MaskOf(children[0]);
  if (mask == nullptr) return false;
  if (words_ == 1) {
    // Up to 64 positions: the reachable set is one register.
    uint64_t state = first_[0] & mask[0];
    for (size_t i = 1; i < children.size() && state != 0; ++i) {
      mask = MaskOf(children[i]);
      if (mask == nullptr) return false;
      uint64_t next = 0;
      ForEachBit(&state, 1, [&](size_t pos) { next |= follow_[pos]; });
      state = next & mask[0];
    }
    return (state & last_[0]) != 0;
  }
  Bits state(words_);
  Bits next(words_);
  bool live = false;
  for (size_t w = 0; w < words_; ++w) {
    state[w] = first_[w] & mask[w];
    live = live || state[w] != 0;
  }
  for (size_t i = 1; i < children.size() && live; ++i) {
    mask = MaskOf(children[i]);
    if (mask == nullptr) return false;
    std::fill(next.begin(), next.end(), 0);
    ForEachBit(state.data(), words_, [&](size_t pos) {
      OrInto(next.data(), &follow_[pos * words_], words_);
    });
    live = false;
    for (size_t w = 0; w < words_; ++w) {
      state[w] = next[w] & mask[w];
      live = live || state[w] != 0;
    }
  }
  for (size_t w = 0; w < words_; ++w) {
    if ((state[w] & last_[w]) != 0) return true;
  }
  return false;
}

}  // namespace webre
