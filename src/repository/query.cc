#include "repository/query.h"

#include <algorithm>

#include "repository/predicate.h"
#include "util/simd_scan.h"
#include "util/strings.h"

namespace webre {
namespace {

bool IsNameChar(char c) {
  return IsAsciiAlnum(c) || c == '-' || c == '_' || c == '.' || c == '*';
}

}  // namespace

StatusOr<PathQuery> PathQuery::Parse(std::string_view text) {
  PathQuery query;
  size_t pos = 0;
  if (text.empty() || text[0] != '/') {
    return Status::InvalidArgument("query must start with '/' or '//'");
  }
  while (pos < text.size()) {
    if (text[pos] != '/') {
      return Status::InvalidArgument("expected '/' at position " +
                                     std::to_string(pos));
    }
    QueryStep step;
    ++pos;
    if (pos < text.size() && text[pos] == '/') {
      step.descendant = true;
      ++pos;
    }
    size_t name_start = pos;
    while (pos < text.size() && IsNameChar(text[pos])) ++pos;
    step.name = std::string(text.substr(name_start, pos - name_start));
    if (step.name.empty()) {
      return Status::InvalidArgument("empty step name at position " +
                                     std::to_string(name_start));
    }
    if (step.name != "*" &&
        step.name.find('*') != std::string::npos) {
      return Status::InvalidArgument(
          "'*' must be the whole step name: " + step.name);
    }
    if (step.name == "*") {
      step.wildcard = true;
    } else {
      // Interned eagerly (not Find) so a query parsed before the first
      // document naming this element still matches once such documents
      // arrive.
      step.name_id = NameTable::Global().Intern(step.name);
    }
    // Optional predicate [val~"substr"].
    if (pos < text.size() && text[pos] == '[') {
      constexpr std::string_view kPrefix = "[val~\"";
      if (text.substr(pos).substr(0, kPrefix.size()) != kPrefix) {
        return Status::InvalidArgument(
            "malformed predicate; expected [val~\"...\"]");
      }
      pos += kPrefix.size();
      size_t value_start = pos;
      while (pos < text.size() && text[pos] != '"') ++pos;
      if (pos + 1 >= text.size() || text[pos] != '"' ||
          text[pos + 1] != ']') {
        return Status::InvalidArgument("unterminated predicate");
      }
      step.val_contains =
          std::string(text.substr(value_start, pos - value_start));
      step.val_lower = AsciiLower(step.val_contains);
      pos += 2;
    }
    query.steps_.push_back(std::move(step));
  }
  if (query.steps_.empty()) {
    return Status::InvalidArgument("empty query");
  }
  return query;
}

bool PathQuery::IsSimplePath() const {
  return SimplePrefixLength() == steps_.size();
}

size_t PathQuery::SimplePrefixLength() const {
  size_t k = 0;
  for (const QueryStep& step : steps_) {
    if (step.descendant || step.wildcard || !step.val_contains.empty()) {
      break;
    }
    ++k;
  }
  return k;
}

std::vector<std::string> PathQuery::AsLabelPath() const {
  std::vector<std::string> path;
  path.reserve(steps_.size());
  for (const QueryStep& step : steps_) path.push_back(step.name);
  return path;
}

namespace {

// Name half of one step's test: Parse has already resolved the name to
// an interned id (or marked the step a wildcard). The predicate half
// runs in batch over the step's survivors (apply_predicate in
// EvaluateFrom below) with the needle Parse pre-lowered.
inline bool FlatNameMatches(const QueryStep& step, const FlatDoc& doc,
                            uint32_t i) {
  return step.wildcard || doc.name(i) == step.name_id;
}

}  // namespace

struct FlatEvalScratch::Impl {
  /// The per-step successor frontier, swapped with the live frontier so
  /// both buffers' capacities survive across steps and documents.
  std::vector<uint32_t> next;
  PredicateScratch predicate;
};

FlatEvalScratch::FlatEvalScratch() : impl_(std::make_unique<Impl>()) {}
FlatEvalScratch::~FlatEvalScratch() = default;

uint64_t FlatEvalScratch::predicate_bytes_scanned() const {
  return impl_->predicate.bytes_scanned;
}

std::vector<uint32_t> PathQuery::Evaluate(const FlatDoc& doc) const {
  FlatEvalScratch scratch;
  return Evaluate(doc, scratch);
}

std::vector<uint32_t> PathQuery::Evaluate(const FlatDoc& doc,
                                          FlatEvalScratch& scratch) const {
  if (doc.element_count() == 0) return {};
  return EvaluateFrom(doc, {0}, 0, scratch);
}

std::vector<uint32_t> PathQuery::EvaluateFrom(
    const FlatDoc& doc, std::vector<uint32_t> frontier,
    size_t first_step) const {
  FlatEvalScratch scratch;
  return EvaluateFrom(doc, std::move(frontier), first_step, scratch);
}

std::vector<uint32_t> PathQuery::EvaluateFrom(
    const FlatDoc& doc, std::vector<uint32_t> frontier, size_t first_step,
    FlatEvalScratch& scratch) const {
  // Step by step: each step expands the frontier by its axis and name
  // test, then applies its [val~…] predicate in batch to the step's
  // survivors — filtering a set then deduplicating it yields the same
  // set as filtering element-wise, and the batch form lets the cost
  // model swap in a full-pool sweep. After a descendant step the
  // frontier may hold nested elements, so a later descendant step can
  // reach one element twice (deduplicated by sort+unique) and a later
  // child step can emit out of document order (re-sorted once at the
  // end). The result is deduplicated in document order (ascending
  // indices).
  FlatEvalScratch::Impl& state = *scratch.impl_;
  const uint32_t* off = doc.text_offsets();
  const std::string_view pool = doc.text_pool();
  // In-place batch predicate filter over one step's name survivors.
  // Per-document cost decision: slices at least needle-sized are the
  // candidates (shorter ones cannot match and are rejected by length
  // alone); when they cover enough of the pool, one SIMD sweep of the
  // whole pool replaces every per-slice scan and the survivors reduce
  // to bitset lookups.
  auto apply_predicate = [&](const QueryStep& step,
                             std::vector<uint32_t>& v) {
    const std::string_view lowered = step.val_lower;
    if (lowered.empty() || v.empty()) return;
    const size_t m = lowered.size();
    size_t cand_count = 0;
    size_t cand_bytes = 0;
    for (uint32_t e : v) {
      const size_t len = off[e + 1] - off[e];
      if (len >= m) {
        ++cand_count;
        cand_bytes += len;
      }
    }
    size_t kept = 0;
    if (ShouldSweepPool(cand_count, cand_bytes, pool.size())) {
      const uint64_t* bits = SweepValBitset(doc, lowered, state.predicate);
      for (uint32_t e : v) {
        if (BitsetTest(bits, e)) v[kept++] = e;
      }
    } else {
      state.predicate.bytes_scanned += cand_bytes;
      for (uint32_t e : v) {
        const size_t len = off[e + 1] - off[e];
        if (len < m) continue;
        if (FindLowered(std::string_view(pool.data() + off[e], len),
                        lowered) != std::string_view::npos) {
          v[kept++] = e;
        }
      }
    }
    v.resize(kept);
  };

  bool nested_possible = false;
  bool order_suspect = false;
  for (size_t s = 0; s < first_step && s < steps_.size(); ++s) {
    if (steps_[s].descendant) nested_possible = true;
  }

  std::vector<uint32_t>& next = state.next;
  if (first_step == 0 && !steps_.empty()) {
    const QueryStep& first = steps_[0];
    next.clear();
    for (uint32_t root : frontier) {
      if (first.descendant) {
        // `//x` from a root examines the root and its whole subtree —
        // one contiguous range.
        for (uint32_t i = root; i < doc.subtree_end(root); ++i) {
          if (FlatNameMatches(first, doc, i)) next.push_back(i);
        }
      } else if (FlatNameMatches(first, doc, root)) {
        next.push_back(root);
      }
    }
    apply_predicate(first, next);
    std::swap(frontier, next);
    if (first.descendant) nested_possible = true;
    first_step = 1;
  }

  for (size_t s = first_step; s < steps_.size(); ++s) {
    const QueryStep& step = steps_[s];
    next.clear();
    for (uint32_t e : frontier) {
      const uint32_t end = doc.subtree_end(e);
      if (step.descendant) {
        for (uint32_t i = e + 1; i < end; ++i) {
          if (FlatNameMatches(step, doc, i)) next.push_back(i);
        }
      } else {
        for (uint32_t c = e + 1; c < end; c = doc.subtree_end(c)) {
          if (FlatNameMatches(step, doc, c)) next.push_back(c);
        }
      }
    }
    apply_predicate(step, next);
    if (step.descendant) {
      if (nested_possible && next.size() > 1) {
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
      }
      nested_possible = true;
    } else if (nested_possible) {
      order_suspect = true;
    }
    std::swap(frontier, next);
    if (frontier.empty()) break;
  }

  if (order_suspect && frontier.size() > 1) {
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
  }
  return frontier;
}

std::string PathQuery::ToString() const {
  std::string out;
  for (const QueryStep& step : steps_) {
    out.append(step.descendant ? "//" : "/");
    out.append(step.name);
    if (!step.val_contains.empty()) {
      out.append("[val~\"");
      out.append(step.val_contains);
      out.append("\"]");
    }
  }
  return out;
}

}  // namespace webre
