#include "restructure/converter.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "restructure/grouping_rule.h"

namespace webre {
namespace {

// Scoped span recorder: appends one ConvertStageSpan on Finish. Inert
// (no clock read) when `spans` is null.
class SpanScope {
 public:
  SpanScope(std::vector<ConvertStageSpan>* spans, obs::PipelineStage stage)
      : spans_(spans), stage_(stage),
        begin_s_(spans == nullptr ? 0.0 : obs::MonotonicSeconds()) {}

  void Finish(size_t items_in, size_t items_out) {
    if (spans_ == nullptr) return;
    spans_->push_back(ConvertStageSpan{stage_, begin_s_,
                                       obs::MonotonicSeconds(), items_in,
                                       items_out});
  }

 private:
  std::vector<ConvertStageSpan>* spans_;
  obs::PipelineStage stage_;
  double begin_s_;
};

}  // namespace

DocumentConverter::DocumentConverter(const ConceptSet* concepts,
                                     const ConceptRecognizer* recognizer,
                                     const ConstraintSet* constraints,
                                     ConvertOptions options)
    : concepts_(concepts),
      recognizer_(recognizer),
      constraints_(constraints),
      options_(std::move(options)),
      splitter_(options_.tokenize.delimiters) {}

std::unique_ptr<Node> DocumentConverter::Convert(std::string_view html,
                                                 ConvertStats* stats) const {
  return ConvertTree(ParseHtml(html, options_.parse), stats);
}

std::unique_ptr<Node> DocumentConverter::ConvertTree(
    std::unique_ptr<Node> html_tree, ConvertStats* stats) const {
  ConvertStats local;
  ConvertStats* out = stats != nullptr ? stats : &local;
  *out = ConvertStats{};
  ResourceBudget unlimited(ResourceLimits::Unlimited());
  // Nothing can trip an unlimited budget.
  (void)RunGuardedRules(html_tree.get(), out, nullptr, unlimited);
  return html_tree;
}

Status DocumentConverter::RunGuardedRules(Node* root, ConvertStats* out,
                                          std::string* failed_stage,
                                          ResourceBudget& budget) const {
  auto fail = [failed_stage](const char* stage, Status status) {
    if (failed_stage != nullptr) *failed_stage = stage;
    return status;
  };
  std::vector<ConvertStageSpan>* spans =
      options_.record_stage_spans ? &out->stage_spans : nullptr;
  // One allocation for the whole document's spans (7 stages at most).
  if (spans != nullptr) spans->reserve(8);
  // Nodes admitted so far = the tree as parsed/charged by the caller.
  const size_t nodes_entering = budget.nodes_used();

  // The tidy span's node count "out" comes from the tokenization guard
  // walk below (which visits every node anyway), so instrumentation adds
  // clock reads but no extra tree traversals to the hot path.
  double tidy_begin = 0.0;
  double tidy_end = 0.0;
  if (options_.apply_tidy) {
    if (spans != nullptr) tidy_begin = obs::MonotonicSeconds();
    Status tidied = TidyHtmlTree(root, options_.tidy, budget);
    if (!tidied.ok()) return fail("tidy", std::move(tidied));
    if (spans != nullptr) tidy_end = obs::MonotonicSeconds();
  }

  {
    SpanScope span(spans, obs::PipelineStage::kTokenize);
    // Tokenization is the one rule that multiplies nodes, so its blowup
    // is bounded both per text node and against the document node budget
    // before the text pass runs.
    const TextMeasure measure = MeasureText(*root, splitter_);
    if (spans != nullptr && options_.apply_tidy) {
      spans->push_back(ConvertStageSpan{obs::PipelineStage::kTidy,
                                        tidy_begin, tidy_end, nodes_entering,
                                        measure.node_count});
    }
    const size_t max_tokens = budget.limits().max_tokens_per_text;
    if (measure.worst_pieces > max_tokens) {
      return fail("tokenize",
                  Status::ResourceExhausted(
                      "text node would split into " +
                      std::to_string(measure.worst_pieces) +
                      " tokens, exceeding max_tokens_per_text=" +
                      std::to_string(max_tokens)));
    }
    out->tokens_created = measure.tokens;
    // Charged as the tokenization rule built them: a TOKEN element plus
    // its text child each, though the text pass builds neither.
    Status charged = budget.ChargeNodes(2 * out->tokens_created);
    if (!charged.ok()) return fail("tokenize", std::move(charged));
    span.Finish(measure.node_count, out->tokens_created);
  }

  {
    SpanScope span(spans, obs::PipelineStage::kInstance);
    out->instance =
        ApplyTextRules(root, splitter_, *recognizer_, constraints_);
    span.Finish(out->instance.tokens_total, out->instance.elements_created);
  }

  if (options_.apply_grouping) {
    SpanScope span(spans, obs::PipelineStage::kGroup);
    out->groups_created = ApplyGroupingRule(root);
    // Concept elements in, concept elements + GROUP wrappers out (every
    // GROUP adds exactly one node).
    span.Finish(out->instance.elements_created,
                out->instance.elements_created + out->groups_created);
  }

  SpanScope consolidate_span(spans, obs::PipelineStage::kConsolidate);
  out->consolidation =
      ApplyConsolidationRule(root, *concepts_, constraints_);

  // The remaining rules only rearrange or shrink the tree; charge the
  // final shape against the budget as a backstop.
  const TreeStats shape = MeasureTree(*root);
  Status final_check = budget.CheckNodeCount(shape.node_count);
  if (final_check.ok()) final_check = budget.CheckDepth(shape.max_depth);
  if (final_check.ok()) final_check = budget.ChargeSteps(shape.node_count * 3);
  if (!final_check.ok()) return fail("rules", std::move(final_check));
  consolidate_span.Finish(
      out->instance.elements_created + out->groups_created,
      shape.node_count);

  root->set_name(options_.root_name);
  out->concept_nodes = shape.node_count - 1;
  out->budget_steps_used = budget.steps_used();
  out->budget_nodes_used = budget.nodes_used();
  out->budget_entities_used = budget.entities_used();
  return Status::Ok();
}

StatusOr<std::unique_ptr<Node>> DocumentConverter::TryConvert(
    std::string_view html, ConvertStats* stats,
    std::string* failed_stage) const {
  ConvertStats local;
  ConvertStats* out = stats != nullptr ? stats : &local;
  *out = ConvertStats{};

  ResourceBudget budget(options_.limits);
  SpanScope parse_span(
      options_.record_stage_spans ? &out->stage_spans : nullptr,
      obs::PipelineStage::kParse);
  StatusOr<std::unique_ptr<Node>> tree =
      ParseHtml(html, options_.parse, budget);
  if (!tree.ok()) {
    if (failed_stage != nullptr) *failed_stage = "parse";
    return tree.status();
  }
  parse_span.Finish(html.size(), budget.nodes_used());
  WEBRE_RETURN_IF_ERROR(
      RunGuardedRules(tree.value().get(), out, failed_stage, budget));
  return tree;
}

StatusOr<std::unique_ptr<Node>> DocumentConverter::TryConvertTree(
    std::unique_ptr<Node> html_tree, ConvertStats* stats,
    std::string* failed_stage) const {
  ConvertStats local;
  ConvertStats* out = stats != nullptr ? stats : &local;
  *out = ConvertStats{};

  if (html_tree == nullptr) {
    if (failed_stage != nullptr) *failed_stage = "parse";
    return Status::InvalidArgument("null HTML tree");
  }
  // Caller-built trees never passed through the guarded parser, so
  // validate their shape before any recursive pass touches them.
  ResourceBudget budget(options_.limits);
  const TreeStats shape = MeasureTree(*html_tree);
  Status admissible = budget.CheckDepth(shape.max_depth);
  if (admissible.ok()) admissible = budget.ChargeNodes(shape.node_count);
  if (!admissible.ok()) {
    if (failed_stage != nullptr) *failed_stage = "parse";
    return admissible;
  }
  WEBRE_RETURN_IF_ERROR(
      RunGuardedRules(html_tree.get(), out, failed_stage, budget));
  return html_tree;
}

}  // namespace webre
