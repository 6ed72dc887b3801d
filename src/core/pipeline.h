#ifndef WEBRE_CORE_PIPELINE_H_
#define WEBRE_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "concepts/concept.h"
#include "concepts/constraints.h"
#include "mapping/document_mapper.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"
#include "restructure/converter.h"
#include "restructure/recognizer.h"
#include "schema/dtd_builder.h"
#include "schema/frequent_paths.h"
#include "util/resource_limits.h"
#include "util/thread_pool.h"
#include "xml/dtd.h"
#include "xml/node_arena.h"

namespace webre {

/// Options spanning the full pipeline.
struct PipelineOptions {
  ConvertOptions convert;
  MiningOptions mining;
  DtdBuildOptions dtd;
  /// Conform every document to the derived DTD via the Document Mapping
  /// Component and report how many conform before/after.
  bool map_documents = false;
  /// Fan-out of the per-document stages (conversion, validation,
  /// mapping). The default (num_threads = 1) is fully serial; any
  /// thread count produces byte-identical results because per-document
  /// work is independent and merge order is the input order.
  ParallelOptions parallel;
  /// Per-document resource guards (copied into `convert.limits`; the
  /// value set here wins). A document that trips a guard costs one
  /// error record, never the batch.
  ResourceLimits limits;
  /// Keep converting after a document fails (the default): failures are
  /// recorded per document and every healthy document still flows into
  /// schema discovery. When false, all conversions still run (so the
  /// outcome list is complete and deterministic at any thread count)
  /// but a batch with any failure stops before discovery — the result
  /// carries empty schema/DTD and `aborted = true`.
  bool keep_going = true;
  /// When non-null, batch metrics accumulate here (borrowed; must
  /// outlive the Run call): per-stage wall time and item counts, rule
  /// counters, budget consumption, the document-outcome taxonomy and
  /// the per-document latency histogram. Every counter is byte-identical
  /// across thread counts; only wall times vary. Setting this turns on
  /// `convert.record_stage_spans` automatically.
  obs::PipelineMetrics* metrics = nullptr;
  /// When non-null, per-stage spans are emitted here (borrowed) for
  /// Chrome trace_event export — one lane per worker thread. Also turns
  /// on `convert.record_stage_spans`.
  obs::TraceCollector* trace = nullptr;
  /// Allocate each document's tree from a per-document NodeArena
  /// (PipelineResult::arenas): contiguous node storage, O(1) teardown,
  /// and no per-node free traffic during restructuring. The arena of a
  /// failed document is released immediately. Turn off to allocate
  /// nodes from the heap (e.g. when result trees must outlive the
  /// PipelineResult they came in).
  bool use_node_arena = true;
};

/// How one input document fared, for the machine-readable error summary.
enum class DocumentStatus {
  kOk = 0,
  /// The input could not be parsed into a tree (reserved for strict
  /// front doors; the lenient HTML path repairs instead of failing).
  kParseError,
  /// A ResourceLimits guard tripped (kResourceExhausted).
  kLimitExceeded,
  /// A restructuring stage failed, including a captured exception
  /// (std::bad_alloc and friends) from the per-document worker.
  kConvertError,
};

/// Stable lower_snake name for `status` (e.g. "limit_exceeded").
const char* DocumentStatusName(DocumentStatus status);

/// Canonical Status-code → DocumentStatus mapping, shared by the
/// pipeline and the CLI so the machine-readable status string for a
/// given failure is identical across commands.
DocumentStatus StatusToDocumentStatus(const Status& status);

/// Per-document fate record. Healthy documents get {kOk, "", "", i};
/// failed documents name the stage that gave up ("parse", "tidy",
/// "tokenize", "rules", "extract", "validate", "map") and carry the
/// error message verbatim.
struct DocumentOutcome {
  DocumentStatus status = DocumentStatus::kOk;
  /// Stage that failed; empty for kOk.
  std::string stage;
  /// Error message; empty for kOk.
  std::string message;
  /// Index of the document in the input batch.
  size_t index = 0;

  bool ok() const { return status == DocumentStatus::kOk; }
};

/// Output of Pipeline::Run.
///
/// Memory: with PipelineOptions::use_node_arena (the default), every
/// tree in `documents` / `mapped_documents` lives in the per-document
/// arena at the same index of `arenas`. The trees must not outlive
/// their arenas — `arenas` is deliberately the first member so C++
/// reverse-declaration destruction tears the trees down before their
/// backing memory. Callers that move a tree out of the result must
/// also keep (share) the matching arena, or copy the tree via Clone()
/// outside any arena scope.
struct PipelineResult {
  /// Per-document node arenas, parallel to `documents`; empty when
  /// use_node_arena is off, null at indices whose document failed.
  /// Declared first: must be destroyed last (see struct comment).
  std::vector<std::shared_ptr<NodeArena>> arenas;
  /// Converted XML documents, in input order. Null for documents whose
  /// outcome is not ok (check `outcomes`).
  std::vector<std::unique_ptr<Node>> documents;
  /// Per-document conversion stats (default-initialized for failures).
  std::vector<ConvertStats> convert_stats;
  /// Per-document fate, in input order; always sized like `documents`.
  std::vector<DocumentOutcome> outcomes;
  /// Number of outcomes that are not ok.
  size_t failed_documents = 0;
  /// True iff keep_going was off and a failure stopped the pipeline
  /// before schema discovery.
  bool aborted = false;
  MajoritySchema schema;
  Dtd dtd;
  MiningStats mining_stats;
  /// Documents conforming to the DTD as converted.
  size_t conforming_before = 0;
  /// Documents conforming after mapping (only if map_documents).
  size_t conforming_after = 0;
  /// Mapped documents (empty unless map_documents; null per failed doc).
  std::vector<std::unique_ptr<Node>> mapped_documents;
};

/// End-to-end pipeline (the paper's three steps, §5): (1) HTML→XML
/// document conversion, (2) majority-schema discovery + DTD derivation,
/// (3) optional schema-guided document mapping.
///
/// The per-document stages are embarrassingly parallel and fan out
/// across a worker pool when `options.parallel.num_threads != 1`. Each
/// conversion chunk folds its documents' label paths into its own
/// miner; discovery merges the chunk miners (every statistic is an
/// integer sum, so the merged trie does not depend on chunking or
/// thread count) and mines the schema serially. The recognizer passed
/// in must be const-thread-safe — the bundled recognizers are, as they
/// hold only immutable borrowed state.
///
/// Fault isolation: each document converts under `options.limits` and
/// behind a per-document exception barrier, so one pathological page —
/// 10k-deep nesting, entity bombs, megabyte attributes — produces one
/// DocumentOutcome while the rest of the batch completes. Discovery
/// folds only the surviving documents. On clean input the result is
/// byte-identical to a run without guards, at any thread count.
///
/// The borrowed concept set, recognizer and constraints must outlive the
/// pipeline. `constraints` may be null.
class Pipeline {
 public:
  Pipeline(const ConceptSet* concepts, const ConceptRecognizer* recognizer,
           const ConstraintSet* constraints, PipelineOptions options = {});

  /// Runs all stages over raw HTML pages.
  PipelineResult Run(const std::vector<std::string>& html_pages) const;

  const PipelineOptions& options() const { return options_; }

 private:
  const ConstraintSet* constraints_;
  DocumentConverter converter_;
  PipelineOptions options_;
};

}  // namespace webre

#endif  // WEBRE_CORE_PIPELINE_H_
