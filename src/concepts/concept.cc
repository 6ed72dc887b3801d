#include "concepts/concept.h"

#include <algorithm>

#include "concepts/instance_matcher.h"
#include "util/strings.h"

namespace webre {

bool Concept::IsShapeInstance(std::string_view instance) {
  return instance.size() >= 3 && instance.front() == '#' &&
         instance.back() == '#';
}

void ConceptSet::Add(Concept concept_def) {
  auto it = index_.find(std::string_view(concept_def.name));
  if (it != index_.end()) {
    concepts_[it->second] = std::move(concept_def);
  } else {
    index_.emplace(concept_def.name, concepts_.size());
    name_ids_.push_back(InternName(concept_def.name));
    concepts_.push_back(std::move(concept_def));
  }
  matcher_ = std::make_shared<const InstanceMatcher>(concepts_);
}

size_t ConceptSet::IndexOf(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kNpos : it->second;
}

const Concept* ConceptSet::Find(std::string_view name) const {
  const size_t index = IndexOf(name);
  return index == kNpos ? nullptr : &concepts_[index];
}

bool ConceptSet::Contains(std::string_view name) const {
  return IndexOf(name) != kNpos;
}

size_t ConceptSet::TotalInstanceCount() const {
  size_t total = 0;
  for (const Concept& c : concepts_) total += c.instances.size();
  return total;
}

namespace {

// Appends all word-boundary, case-insensitive occurrences of `needle`.
void FindKeywordMatches(std::string_view text, std::string_view needle,
                        size_t concept_index, std::string_view concept_name,
                        NameId concept_id, std::vector<InstanceMatch>& out) {
  if (needle.empty() || needle.size() > text.size()) return;
  for (size_t i = 0; i + needle.size() <= text.size(); ++i) {
    size_t j = 0;
    while (j < needle.size() &&
           AsciiToLower(text[i + j]) == AsciiToLower(needle[j])) {
      ++j;
    }
    if (j != needle.size()) continue;
    const bool left_ok = i == 0 || !IsAsciiAlnum(text[i - 1]);
    const size_t end = i + needle.size();
    const bool right_ok = end >= text.size() || !IsAsciiAlnum(text[end]);
    if (left_ok && right_ok) {
      out.push_back(InstanceMatch{concept_index, concept_name, i,
                                  needle.size(), false, concept_id});
    }
  }
}

// Appends matches of a shape instance: every maximal digit-ish word in
// `text` whose shape equals `shape`.
void FindShapeMatches(std::string_view text, std::string_view shape,
                      size_t concept_index, std::string_view concept_name,
                      NameId concept_id, std::vector<InstanceMatch>& out) {
  size_t i = 0;
  while (i < text.size()) {
    if (!IsAsciiDigit(text[i])) {
      ++i;
      continue;
    }
    // Expand a digit/period/slash run; require word boundaries.
    size_t begin = i;
    size_t end = i;
    while (end < text.size() &&
           (IsAsciiDigit(text[end]) || text[end] == '.' || text[end] == '/')) {
      ++end;
    }
    // Trim trailing periods/slashes (sentence punctuation).
    while (end > begin && (text[end - 1] == '.' || text[end - 1] == '/')) {
      --end;
    }
    const bool left_ok = begin == 0 || !IsAsciiAlnum(text[begin - 1]);
    const bool right_ok = end >= text.size() || !IsAsciiAlnum(text[end]);
    if (left_ok && right_ok && end > begin &&
        NumericWordShape(text.substr(begin, end - begin)) == shape) {
      out.push_back(InstanceMatch{concept_index, concept_name, begin,
                                  end - begin, false, concept_id});
    }
    i = end + 1;
  }
}

// Resolves overlapping candidates: prefer longer matches, then earlier,
// then lower concept index; writes survivors sorted by position to
// `selected`. Shared by the automaton-backed and naive paths so both
// produce identical results by construction.
void SelectNonOverlapping(std::vector<InstanceMatch>& candidates,
                          std::vector<InstanceMatch>& selected) {
  std::sort(candidates.begin(), candidates.end(),
            [](const InstanceMatch& a, const InstanceMatch& b) {
              if (a.length != b.length) return a.length > b.length;
              if (a.position != b.position) return a.position < b.position;
              return a.concept_index < b.concept_index;
            });
  selected.clear();
  for (const InstanceMatch& m : candidates) {
    bool overlaps = false;
    for (const InstanceMatch& s : selected) {
      if (m.position < s.position + s.length &&
          s.position < m.position + m.length) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) selected.push_back(m);
  }
  std::sort(selected.begin(), selected.end(),
            [](const InstanceMatch& a, const InstanceMatch& b) {
              return a.position < b.position;
            });
}

}  // namespace

std::vector<InstanceMatch> ConceptSet::MatchAll(std::string_view text) const {
  MatchScratch scratch;
  std::vector<InstanceMatch> matches;
  MatchAllInto(text, scratch, matches);
  return matches;
}

void ConceptSet::MatchAllInto(std::string_view text, MatchScratch& scratch,
                              std::vector<InstanceMatch>& out) const {
  out.clear();
  if (matcher_ == nullptr) return;
  scratch.candidates.clear();
  matcher_->CollectCandidates(text, scratch.candidates);
  SelectNonOverlapping(scratch.candidates, out);
}

std::vector<InstanceMatch> ConceptSet::MatchAllNaive(
    std::string_view text) const {
  std::vector<InstanceMatch> candidates;
  for (size_t ci = 0; ci < concepts_.size(); ++ci) {
    const Concept& concept_def = concepts_[ci];
    const NameId id = name_ids_[ci];
    FindKeywordMatches(text, concept_def.name, ci, concept_def.name, id,
                       candidates);
    for (const std::string& instance : concept_def.instances) {
      if (Concept::IsShapeInstance(instance)) {
        FindShapeMatches(text, instance, ci, concept_def.name, id,
                         candidates);
      } else {
        FindKeywordMatches(text, instance, ci, concept_def.name, id,
                           candidates);
      }
    }
  }
  std::vector<InstanceMatch> selected;
  SelectNonOverlapping(candidates, selected);
  return selected;
}

InstanceMatch ConceptSet::MatchFirst(std::string_view text) const {
  std::vector<InstanceMatch> all = MatchAll(text);
  if (all.empty()) return InstanceMatch{};
  return all.front();
}

}  // namespace webre
