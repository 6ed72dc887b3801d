#include "concepts/instance_matcher.h"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "util/strings.h"

namespace webre {

std::string_view NumericWordShape(std::string_view word) {
  bool any_digit = false;
  bool all_digits = true;
  bool ratio_chars = false;
  for (char c : word) {
    if (IsAsciiDigit(c)) {
      any_digit = true;
    } else {
      all_digits = false;
      if (c == '.' || c == '/') {
        ratio_chars = true;
      } else {
        return {};
      }
    }
  }
  if (!any_digit) return {};
  if (all_digits) {
    if (word.size() == 4 && (word[0] == '1' || word[0] == '2') &&
        (word[1] == '9' || word[1] == '0')) {
      return "#year#";
    }
    return "#num#";
  }
  if (ratio_chars) return "#ratio#";
  return "#num#";
}

InstanceMatcher::InstanceMatcher(const std::vector<Concept>& concepts) {
  names_.reserve(concepts.size());
  name_ids_.reserve(concepts.size());
  for (const Concept& c : concepts) {
    names_.push_back(c.name);
    name_ids_.push_back(InternName(c.name));
  }

  // Gather the deduplicated (lowercased pattern, concept) pairs. The
  // naive scan emits identical duplicate candidates for a repeated
  // instance; overlap selection then drops them, so deduplicating here
  // preserves MatchAll's result exactly.
  std::set<std::pair<std::string, uint32_t>> keywords;
  std::set<std::pair<std::string, uint32_t>> shapes;
  for (size_t ci = 0; ci < concepts.size(); ++ci) {
    const Concept& c = concepts[ci];
    const uint32_t index = static_cast<uint32_t>(ci);
    if (!c.name.empty()) keywords.emplace(AsciiLower(c.name), index);
    for (const std::string& instance : c.instances) {
      if (instance.empty()) continue;
      if (Concept::IsShapeInstance(instance)) {
        shapes.emplace(instance, index);
      } else {
        keywords.emplace(AsciiLower(instance), index);
      }
    }
  }
  for (const auto& [shape, index] : shapes) {
    shapes_.push_back(ShapePattern{shape, index});
  }
  pattern_count_ = keywords.size();

  // Alphabet: only bytes that occur in some pattern get a symbol;
  // everything else maps to symbol 0, whose transition is pinned to the
  // root state.
  for (const auto& [pattern, index] : keywords) {
    for (char c : pattern) {
      symbol_[static_cast<unsigned char>(c)] = 1;
    }
  }
  for (size_t b = 0; b < 256; ++b) {
    if (symbol_[b] != 0) symbol_[b] = static_cast<uint8_t>(alphabet_size_++);
  }

  // Trie construction over (state × symbol), -1 for absent edges.
  std::vector<int32_t> trie(alphabet_size_, -1);
  std::vector<std::vector<Output>> node_outputs(1);
  auto add_state = [&]() {
    trie.resize(trie.size() + alphabet_size_, -1);
    node_outputs.emplace_back();
    return static_cast<int32_t>(node_outputs.size() - 1);
  };
  for (const auto& [pattern, index] : keywords) {
    int32_t state = 0;
    for (char c : pattern) {
      const size_t a = symbol_[static_cast<unsigned char>(c)];
      int32_t next = trie[state * alphabet_size_ + a];
      if (next < 0) {
        next = add_state();  // resizes trie — index afresh below
        trie[state * alphabet_size_ + a] = next;
      }
      state = next;
    }
    node_outputs[state].push_back(
        Output{static_cast<uint32_t>(pattern.size()), index});
  }
  state_count_ = node_outputs.size();

  // BFS: resolve failure links directly into the dense transition table
  // (goto-with-failure collapses to a DFA) and merge suffix outputs so
  // matching never walks failure chains.
  transitions_ = trie;
  std::vector<int32_t> fail(state_count_, 0);
  std::deque<int32_t> queue;
  for (size_t a = 0; a < alphabet_size_; ++a) {
    int32_t& child = transitions_[a];
    if (child < 0) {
      child = 0;
    } else {
      fail[child] = 0;
      queue.push_back(child);
    }
  }
  while (!queue.empty()) {
    const int32_t state = queue.front();
    queue.pop_front();
    const std::vector<Output>& suffix = node_outputs[fail[state]];
    node_outputs[state].insert(node_outputs[state].end(), suffix.begin(),
                               suffix.end());
    for (size_t a = 0; a < alphabet_size_; ++a) {
      int32_t& child = transitions_[state * alphabet_size_ + a];
      const int32_t via_fail = transitions_[fail[state] * alphabet_size_ + a];
      if (child < 0) {
        child = via_fail;
      } else {
        fail[child] = via_fail;
        queue.push_back(child);
      }
    }
  }

  // Flatten per-state outputs for cache-friendly emission.
  output_begin_.assign(state_count_ + 1, 0);
  size_t total = 0;
  for (size_t s = 0; s < state_count_; ++s) {
    output_begin_[s] = static_cast<uint32_t>(total);
    total += node_outputs[s].size();
  }
  output_begin_[state_count_] = static_cast<uint32_t>(total);
  outputs_.reserve(total);
  for (const std::vector<Output>& node : node_outputs) {
    outputs_.insert(outputs_.end(), node.begin(), node.end());
  }
}

void InstanceMatcher::CollectCandidates(std::string_view text,
                                        std::vector<InstanceMatch>& out) const {
  // Keyword pass: one DFA sweep, boundary checks only on hits.
  int32_t state = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const size_t a = symbol_[static_cast<unsigned char>(
        AsciiToLower(text[i]))];
    state = transitions_[state * alphabet_size_ + a];
    const uint32_t begin = output_begin_[state];
    const uint32_t end = output_begin_[state + 1];
    for (uint32_t o = begin; o < end; ++o) {
      const Output& output = outputs_[o];
      const size_t pos = i + 1 - output.length;
      const bool left_ok = pos == 0 || !IsAsciiAlnum(text[pos - 1]);
      const bool right_ok =
          i + 1 >= text.size() || !IsAsciiAlnum(text[i + 1]);
      if (left_ok && right_ok) {
        out.push_back(InstanceMatch{
            output.concept_index, names_[output.concept_index], pos,
            output.length, false, name_ids_[output.concept_index]});
      }
    }
  }

  if (shapes_.empty()) return;
  // Shape pass: one scan over maximal digit-ish runs, shared by every
  // shape pattern (identical run/trim/boundary rules to the naive
  // FindShapeMatches).
  size_t i = 0;
  while (i < text.size()) {
    if (!IsAsciiDigit(text[i])) {
      ++i;
      continue;
    }
    const size_t begin = i;
    size_t end = i;
    while (end < text.size() &&
           (IsAsciiDigit(text[end]) || text[end] == '.' ||
            text[end] == '/')) {
      ++end;
    }
    while (end > begin && (text[end - 1] == '.' || text[end - 1] == '/')) {
      --end;
    }
    const bool left_ok = begin == 0 || !IsAsciiAlnum(text[begin - 1]);
    const bool right_ok = end >= text.size() || !IsAsciiAlnum(text[end]);
    if (left_ok && right_ok && end > begin) {
      const std::string_view shape =
          NumericWordShape(text.substr(begin, end - begin));
      if (!shape.empty()) {
        for (const ShapePattern& pattern : shapes_) {
          if (pattern.shape == shape) {
            out.push_back(InstanceMatch{
                pattern.concept_index, names_[pattern.concept_index], begin,
                end - begin, false, name_ids_[pattern.concept_index]});
          }
        }
      }
    }
    i = end + 1;
  }
}

}  // namespace webre
