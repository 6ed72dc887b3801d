#ifndef WEBRE_RESTRUCTURE_CONVERTER_H_
#define WEBRE_RESTRUCTURE_CONVERTER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "concepts/concept.h"
#include "concepts/constraints.h"
#include "html/parser.h"
#include "html/tidy.h"
#include "obs/stage.h"
#include "restructure/consolidation_rule.h"
#include "restructure/recognizer.h"
#include "restructure/text_rules.h"
#include "xml/node.h"

namespace webre {

/// Options for DocumentConverter.
struct ConvertOptions {
  /// Element name given to the root of the resulting XML document (the
  /// topic, e.g. "resume").
  std::string root_name = "resume";
  /// Run the HTML cleanser before restructuring (§2.4: "applying HTML
  /// cleansing tools (such as HTML Tidy) can improve the accuracy").
  bool apply_tidy = true;
  /// Run the grouping rule (ablatable; see bench_ablations).
  bool apply_grouping = true;
  HtmlParseOptions parse;
  TidyOptions tidy;
  TokenizeOptions tokenize;
  /// Per-document resource guards, enforced only by TryConvert /
  /// TryConvertTree (Convert and ConvertTree run the same rules under
  /// ResourceLimits::Unlimited() for callers that trust their input).
  ResourceLimits limits;
  /// Record per-stage wall-time spans and item counts into
  /// `ConvertStats::stage_spans` (observability, DESIGN.md §10). Off by
  /// default: recording costs a clock read per stage plus two iterative
  /// tree walks per document, so the un-instrumented path stays
  /// byte-for-byte as fast as before.
  bool record_stage_spans = false;
};

/// One stage's interval within a single document conversion, recorded by
/// the guarded entry points when `ConvertOptions::record_stage_spans` is
/// set. Timestamps come from obs::MonotonicSeconds so spans from many
/// documents/threads share a timebase (ready for trace export).
struct ConvertStageSpan {
  obs::PipelineStage stage = obs::PipelineStage::kParse;
  double begin_seconds = 0.0;
  double end_seconds = 0.0;
  /// Stage-specific units (DESIGN.md §10): bytes in for parse; tree
  /// nodes for parse-out/tidy/tokenize-in; tokens for tokenize-out and
  /// instance-in; concept elements for instance-out and grouping; final
  /// tree nodes for consolidate-out. Chosen so every count falls out of
  /// work the stage already does — instrumentation never walks the tree
  /// again. The tokenize span times the guard walk that measures the
  /// tokens; the instance span times the one text pass (ApplyTextRules)
  /// that splits and recognizes them.
  size_t items_in = 0;
  size_t items_out = 0;
};

/// Per-document conversion report.
struct ConvertStats {
  size_t tokens_created = 0;
  InstanceRuleStats instance;
  size_t groups_created = 0;
  ConsolidationStats consolidation;
  /// Concept elements in the final document (excluding the root).
  size_t concept_nodes = 0;
  /// Completed stage intervals, in execution order (only when
  /// `ConvertOptions::record_stage_spans` is set; a failed conversion
  /// carries the stages completed before the failure).
  std::vector<ConvertStageSpan> stage_spans;
  /// ResourceBudget consumption at completion (0 for failed documents —
  /// they stopped charging mid-way).
  size_t budget_steps_used = 0;
  size_t budget_nodes_used = 0;
  size_t budget_entities_used = 0;
  /// Memory accounting, filled by callers that own the allocation
  /// context (the pipeline, the benches): Node allocations performed
  /// for this document and, when a NodeArena was installed, the arena
  /// payload bytes the document's tree occupies. Zero when untracked.
  size_t mem_node_allocs = 0;
  size_t mem_arena_bytes = 0;
};

/// The document conversion process (§2): parses a topic-specific HTML
/// document and applies, in order, the tokenization and concept instance
/// rules (one text pass, ApplyTextRules), the grouping rule and the
/// consolidation rule, yielding an XML document whose elements carry
/// concept names.
///
/// Thread-compatible: Convert is const and the converter holds only
/// const borrowed state, so one converter may serve concurrent callers.
class DocumentConverter {
 public:
  /// `concepts` and `recognizer` must outlive the converter.
  /// `constraints` is optional and may be null.
  DocumentConverter(const ConceptSet* concepts,
                    const ConceptRecognizer* recognizer,
                    const ConstraintSet* constraints = nullptr,
                    ConvertOptions options = {});

  /// Converts raw HTML into an XML document rooted at an element named
  /// `options.root_name`. Never fails (lenient parsing end to end).
  std::unique_ptr<Node> Convert(std::string_view html,
                                ConvertStats* stats = nullptr) const;

  /// Converts an already-parsed HTML tree (takes ownership). Runs the
  /// guarded rules under ResourceLimits::Unlimited(), so it never fails.
  std::unique_ptr<Node> ConvertTree(std::unique_ptr<Node> html_tree,
                                    ConvertStats* stats = nullptr) const;

  /// Guarded conversion: every stage is charged against one
  /// ResourceBudget built from `options().limits`, so a pathological
  /// document (pathological nesting, entity floods, token bombs) yields
  /// a kResourceExhausted Status instead of unbounded recursion, memory
  /// or time. On failure, `failed_stage` (if non-null) names the stage
  /// that tripped: "parse" (lexing included), "tidy", "tokenize" or
  /// "rules".
  /// On clean input the result is byte-identical to Convert's.
  StatusOr<std::unique_ptr<Node>> TryConvert(
      std::string_view html, ConvertStats* stats = nullptr,
      std::string* failed_stage = nullptr) const;

  /// Guarded variant of ConvertTree for caller-built trees (takes
  /// ownership; the tree is validated against the limits first).
  StatusOr<std::unique_ptr<Node>> TryConvertTree(
      std::unique_ptr<Node> html_tree, ConvertStats* stats = nullptr,
      std::string* failed_stage = nullptr) const;

  const ConvertOptions& options() const { return options_; }

 private:
  /// The one post-parse path (tidy + the four rules) behind every entry
  /// point. `root` must already be admitted to `budget`.
  Status RunGuardedRules(Node* root, ConvertStats* out,
                         std::string* failed_stage,
                         ResourceBudget& budget) const;

  const ConceptSet* concepts_;
  const ConceptRecognizer* recognizer_;
  const ConstraintSet* constraints_;
  ConvertOptions options_;
  TextSplitter splitter_;
};

}  // namespace webre

#endif  // WEBRE_RESTRUCTURE_CONVERTER_H_
