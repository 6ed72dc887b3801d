#ifndef WEBRE_REPOSITORY_QUERY_H_
#define WEBRE_REPOSITORY_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/flat_doc.h"
#include "xml/name_table.h"

namespace webre {

/// One step of a path query.
struct QueryStep {
  /// Element name to match; "*" matches any element.
  std::string name;
  /// When true this step matches at any depth below the previous step
  /// (written `//name`); otherwise only direct children (`/name`).
  bool descendant = false;
  /// Optional predicate: keep only elements whose `val` contains this
  /// substring (case-insensitive). Written `[val~"text"]`. Empty = none.
  std::string val_contains;
  /// ASCII-lowered copy of `val_contains`, filled by Parse so no
  /// evaluation re-lowers the needle.
  std::string val_lower;
  /// Interned id of `name`, filled by Parse (for every name but "*") so
  /// matching is an integer compare.
  NameId name_id = kInvalidNameId;
  /// True when `name` is "*", set by Parse.
  bool wildcard = false;
};

/// Reusable evaluation state for the flat evaluator: resolved step
/// tests, frontier buffers and the vectorized-predicate scratch
/// (repository/predicate.h), all with capacity that survives across
/// documents. The repository creates one per query so evaluating the
/// suffix over every seeded document performs its handful of
/// allocations once instead of per document. Not thread-safe; not
/// shareable across concurrent EvaluateFrom calls.
class FlatEvalScratch {
 public:
  FlatEvalScratch();
  ~FlatEvalScratch();
  FlatEvalScratch(const FlatEvalScratch&) = delete;
  FlatEvalScratch& operator=(const FlatEvalScratch&) = delete;

  /// Predicate bytes charged by evaluations through this scratch
  /// (deterministic accounting — see PredicateScratch::bytes_scanned);
  /// the repository folds this into query.predicate_bytes_scanned.
  uint64_t predicate_bytes_scanned() const;

 private:
  friend class PathQuery;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A parsed path query over concept-tagged XML documents — the query
/// side of the paper's motivation ("facilitate querying Web based data
/// in a way more efficient and effective than just keyword based
/// retrieval", §1, and "query optimization and index structures on XML
/// documents", §1).
///
/// Grammar (a small XPath-like subset):
///   query  := step+
///   step   := ("/" | "//") name predicate?
///   name   := element name | "*"
///   predicate := "[val~\"substring\"]"
///
/// Examples:
///   /resume/EDUCATION/DATE
///   //DATE[val~"1996"]
///   /resume/*/LANGUAGE
///   /resume/EXPERIENCE//DATE
class PathQuery {
 public:
  /// Parses the textual form; fails on syntax errors.
  static StatusOr<PathQuery> Parse(std::string_view text);

  const std::vector<QueryStep>& steps() const { return steps_; }

  /// True when the query is a plain absolute label path — no wildcards,
  /// descendant axes or predicates: it maps to exactly one summary trie
  /// node.
  bool IsSimplePath() const;

  /// Number of leading steps that are plain child-axis name tests (no
  /// wildcard, no descendant axis, no predicate). The repository's
  /// query.plan.* counters use it to tell a `seeded` query (an
  /// intermediate predicate behind such a prefix) from a `scan`.
  size_t SimplePrefixLength() const;

  /// The label path of a simple query (undefined otherwise).
  std::vector<std::string> AsLabelPath() const;

  /// Evaluates the query against one frozen document, addressing
  /// elements by pre-order index. Results come back ascending
  /// (= document order, deduplicated); descendant steps are contiguous
  /// subtree-range scans and `[val~…]` predicates are evaluated in
  /// batch — the step's name survivors are collected first, then
  /// filtered through the SIMD scanner either slice by slice or via one
  /// full-pool sweep intersected as a bitset, whichever the
  /// per-document cost model picks (ShouldSweepPool).
  ///
  /// EvaluateFrom evaluates steps [first_step, …) given `frontier`, the
  /// exact element set steps [0, first_step) matched — deduplicated and
  /// ascending. With first_step == 0 the frontier must hold the
  /// candidate roots (step 0 still applies its own name test /
  /// descendant axis to them as Evaluate does).
  ///
  /// The scratch-less overloads allocate a scratch per call; hot loops
  /// pass their own.
  std::vector<uint32_t> Evaluate(const FlatDoc& doc) const;
  std::vector<uint32_t> Evaluate(const FlatDoc& doc,
                                 FlatEvalScratch& scratch) const;
  std::vector<uint32_t> EvaluateFrom(const FlatDoc& doc,
                                     std::vector<uint32_t> frontier,
                                     size_t first_step) const;
  std::vector<uint32_t> EvaluateFrom(const FlatDoc& doc,
                                     std::vector<uint32_t> frontier,
                                     size_t first_step,
                                     FlatEvalScratch& scratch) const;

  /// Round-trips back to text.
  std::string ToString() const;

 private:
  std::vector<QueryStep> steps_;
};

}  // namespace webre

#endif  // WEBRE_REPOSITORY_QUERY_H_
