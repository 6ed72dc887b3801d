#ifndef WEBRE_OBS_PIPELINE_METRICS_H_
#define WEBRE_OBS_PIPELINE_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/stage.h"

namespace webre {
namespace obs {

/// Point-in-time view of one stage's accumulators.
struct StageSnapshot {
  const char* name = "";
  uint64_t calls = 0;
  uint64_t wall_ns = 0;
  /// Units are stage-specific (DESIGN.md §10): bytes for parse input,
  /// tree nodes for the structural stages, tokens/paths where noted.
  uint64_t items_in = 0;
  uint64_t items_out = 0;

  double wall_ms() const { return static_cast<double>(wall_ns) / 1e6; }
};

/// Point-in-time view of a whole PipelineMetrics. Plain integers — safe
/// to copy, compare and serialize after workers quiesced.
struct PipelineMetricsSnapshot {
  /// One entry per PipelineStage, in execution order.
  std::vector<StageSnapshot> stages;

  // Rule-specific counters (names match the JSON "counters" keys).
  uint64_t tokenize_tokens_emitted = 0;
  uint64_t instance_tokens_total = 0;
  uint64_t instance_tokens_identified = 0;
  uint64_t instance_tokens_via_synonym = 0;
  uint64_t instance_tokens_via_bayes = 0;
  uint64_t instance_elements_created = 0;
  uint64_t instance_segments_vetoed = 0;
  uint64_t grouping_groups_formed = 0;
  uint64_t consolidation_nodes_deleted = 0;
  uint64_t consolidation_nodes_pushed_up = 0;
  uint64_t consolidation_nodes_replaced = 0;
  uint64_t consolidation_replacements_vetoed = 0;

  // Query-serving counters (repository side; zero for pure conversion
  // runs). Merged in via PipelineMetrics::MergeQueryStats.
  uint64_t query_queries = 0;
  uint64_t query_index_hits = 0;
  uint64_t query_prefix_hits = 0;
  uint64_t query_fallback_walks = 0;
  uint64_t query_matches = 0;
  uint64_t query_predicate_bytes_scanned = 0;
  uint64_t query_plan_summary = 0;
  uint64_t query_plan_sweep = 0;
  uint64_t query_plan_seeded = 0;
  uint64_t query_plan_scan = 0;

  // Serving front-end counters (zero for runs without a server).
  // Merged in via PipelineMetrics::MergeServeStats.
  uint64_t serve_accepted_connections = 0;
  uint64_t serve_active_connections = 0;
  uint64_t serve_requests = 0;
  uint64_t serve_shed_requests = 0;
  uint64_t serve_errors = 0;
  uint64_t serve_cache_hits = 0;
  uint64_t serve_cache_misses = 0;
  uint64_t serve_cache_evictions = 0;
  uint64_t serve_max_queue_depth = 0;
  uint64_t serve_loops = 0;
  uint64_t serve_loop_wakeups = 0;
  uint64_t serve_wakeups_coalesced = 0;
  uint64_t serve_loop_handoffs = 0;

  // Durable-storage counters (zero for runs without --data-dir).
  // Merged in via PipelineMetrics::MergeStorageStats.
  uint64_t storage_wal_appends = 0;
  uint64_t storage_wal_replayed = 0;
  uint64_t storage_wal_truncated_bytes = 0;
  uint64_t storage_snapshot_bytes = 0;
  uint64_t storage_mmap_hits = 0;

  // Memory accounting (DESIGN.md §11, §13): Node allocations across the
  // batch (arena and heap alike), total arena payload bytes of the
  // surviving documents, and total frozen FlatDoc block bytes held by
  // repositories merged into this run. Per-document sums — byte-
  // identical across thread counts like every other counter.
  uint64_t mem_node_allocs = 0;
  uint64_t mem_arena_bytes = 0;
  uint64_t mem_flat_bytes = 0;

  // Resource-budget consumption (ok documents; failed documents stop
  // charging at the stage that tripped).
  uint64_t budget_steps_used = 0;
  uint64_t budget_nodes_used = 0;
  uint64_t budget_entities_used = 0;
  uint64_t budget_max_steps_one_doc = 0;
  uint64_t budget_max_nodes_one_doc = 0;
  uint64_t budget_max_entities_one_doc = 0;

  // Document outcomes (PR 2 taxonomy folded to batch level).
  uint64_t documents_total = 0;
  uint64_t documents_ok = 0;
  uint64_t documents_failed = 0;
  bool aborted = false;
  /// status name ("ok", "parse_error", ...) → count; every status that
  /// occurred is present.
  std::vector<std::pair<std::string, uint64_t>> outcome_counts;
  /// failed stage ("parse", "tokenize", ...) → count; nonzero only.
  std::vector<std::pair<std::string, uint64_t>> failed_stage_counts;
  /// First kMaxFailureMessages *distinct* failure messages, input order.
  std::vector<std::string> failure_messages;
  /// Messages of tasks that escaped a worker (ThreadPool backstop);
  /// bounded the same way. Normally empty — the per-document exception
  /// barrier catches first.
  std::vector<std::string> worker_failures;

  /// Per-document end-to-end conversion latency, microseconds.
  HistogramSnapshot convert_us;

  /// Per-query serving latency, microseconds (empty for runs without a
  /// query phase).
  HistogramSnapshot query_us;

  /// All rule counters as (json_key, value) in a fixed order — the
  /// single source for serialization and for the determinism tests.
  std::vector<std::pair<std::string, uint64_t>> CounterItems() const;
};

/// The ResourceLimits values relevant to headroom reporting, decoupled
/// from util/resource_limits.h so obs stays dependency-free. A value of
/// SIZE_MAX means "unlimited" (headroom not reported).
struct BudgetLimitsView {
  uint64_t max_steps = 0;
  uint64_t max_nodes = 0;
  uint64_t max_entities = 0;
};

/// Aggregated metrics for one batch run of the conversion pipeline.
///
/// Writers (pipeline workers) touch only lock-free primitives: sharded
/// Counters, CAS MaxGauges and the atomic Histogram. The mutex guards
/// the *cold* path only — failure bookkeeping, which fires at most once
/// per failed document. Snapshot() merges everything; take it after the
/// run (workers joined), which is when the sums are exact.
///
/// All counting is per-document and order-independent, so every counter
/// in the snapshot is byte-identical across thread counts; only the
/// wall-time fields vary run to run (the determinism tests rely on
/// this split).
class PipelineMetrics {
 public:
  /// Cap on stored failure/worker messages (first distinct N).
  static constexpr size_t kMaxFailureMessages = 16;

  PipelineMetrics() = default;
  PipelineMetrics(const PipelineMetrics&) = delete;
  PipelineMetrics& operator=(const PipelineMetrics&) = delete;

  /// Per-stage accumulators, indexed by PipelineStage.
  Counter& stage_calls(PipelineStage s) { return At(s).calls; }
  Counter& stage_wall_ns(PipelineStage s) { return At(s).wall_ns; }
  Counter& stage_items_in(PipelineStage s) { return At(s).items_in; }
  Counter& stage_items_out(PipelineStage s) { return At(s).items_out; }

  /// Records one stage execution in one call (hot path, lock-free).
  void RecordStage(PipelineStage stage, uint64_t wall_ns, uint64_t items_in,
                   uint64_t items_out) {
    StageAccumulator& acc = At(stage);
    acc.calls.Increment();
    acc.wall_ns.Add(wall_ns);
    acc.items_in.Add(items_in);
    acc.items_out.Add(items_out);
  }

  // Rule-specific counters, grouped per rule (hot path, lock-free).
  struct {
    Counter tokens_emitted;
  } tokenize;
  struct {
    Counter tokens_total;
    Counter tokens_identified;
    Counter tokens_via_synonym;
    Counter tokens_via_bayes;
    Counter elements_created;
    Counter segments_vetoed;
  } instance;
  struct {
    Counter groups_formed;
  } grouping;
  struct {
    Counter nodes_deleted;
    Counter nodes_pushed_up;
    Counter nodes_replaced;
    Counter replacements_vetoed;
  } consolidation;
  struct {
    Counter node_allocs;
    Counter arena_bytes;
    Counter flat_bytes;
  } mem;
  struct {
    Counter queries;
    Counter index_hits;
    Counter prefix_hits;
    Counter fallback_walks;
    Counter matches;
    Counter predicate_bytes_scanned;
    Counter plan_summary;
    Counter plan_sweep;
    Counter plan_seeded;
    Counter plan_scan;
  } query;
  struct {
    Counter wal_appends;
    Counter wal_replayed;
    Counter wal_truncated_bytes;
    Counter snapshot_bytes;
    Counter mmap_hits;
  } storage;
  struct {
    Counter accepted_connections;
    Counter active_connections;
    Counter requests;
    Counter shed_requests;
    Counter errors;
    Counter cache_hits;
    Counter cache_misses;
    Counter cache_evictions;
    Counter max_queue_depth;
    Counter loops;
    Counter loop_wakeups;
    Counter wakeups_coalesced;
    Counter loop_handoffs;
  } serve;
  struct {
    Counter steps_used;
    Counter nodes_used;
    Counter entities_used;
    MaxGauge max_steps_one_doc;
    MaxGauge max_nodes_one_doc;
    MaxGauge max_entities_one_doc;
  } budget;

  /// Per-document end-to-end conversion latency, microseconds.
  Histogram convert_us;

  /// Per-query serving latency, microseconds.
  Histogram query_us;

  /// Folds a repository's query-serving counters into the batch metrics
  /// (the query.* counter group and the query_us histogram). Call after
  /// the query phase quiesced; additive, so several repositories can be
  /// merged.
  void MergeQueryStats(const QueryStatsView& stats);

  /// Folds a durable repository's storage counters into the batch
  /// metrics (the storage.* counter group). Additive like
  /// MergeQueryStats.
  void MergeStorageStats(const StorageStatsView& stats);

  /// Folds a serving front end's counters into the batch metrics (the
  /// serve.* counter group). Additive like MergeQueryStats; the
  /// request_us histogram stays with the server's stats endpoint.
  void MergeServeStats(const ServeStatsView& stats);

  /// Folds one document's fate into the batch metrics (cold path; call
  /// once per document, serially for a deterministic message order).
  /// `status_name` is DocumentStatusName(outcome.status); for ok
  /// documents `failed_stage`/`message` are empty.
  void RecordOutcome(const std::string& status_name,
                     const std::string& failed_stage,
                     const std::string& message);

  /// Records messages of tasks that escaped a pool worker (bounded,
  /// distinct).
  void RecordWorkerFailures(const std::vector<std::string>& messages);

  /// Marks the batch as aborted (keep_going off and a document failed).
  void SetAborted(bool aborted);

  /// Merged view of every accumulator. Exact once writers quiesced.
  PipelineMetricsSnapshot Snapshot() const;

 private:
  struct StageAccumulator {
    Counter calls;
    Counter wall_ns;
    Counter items_in;
    Counter items_out;
  };

  StageAccumulator& At(PipelineStage s) {
    return stages_[static_cast<size_t>(s)];
  }

  StageAccumulator stages_[kPipelineStageCount];

  mutable std::mutex mutex_;
  uint64_t documents_total_ = 0;
  uint64_t documents_ok_ = 0;
  bool aborted_ = false;
  std::map<std::string, uint64_t> outcome_counts_;
  std::map<std::string, uint64_t> failed_stage_counts_;
  std::vector<std::string> failure_messages_;
  std::vector<std::string> worker_failures_;
};

/// Serializes a snapshot as the machine-readable batch summary written
/// by `--metrics-json` (schema in docs/CLI.md; version field
/// "webre_metrics_version"). When `limits` is non-null, a "headroom"
/// object reports 1 − max_one_doc/limit per budget dimension (omitted
/// for unlimited caps).
std::string MetricsToJson(const PipelineMetricsSnapshot& snapshot,
                          const BudgetLimitsView* limits = nullptr);

/// Renders the human-readable `--stats` table (stderr-friendly,
/// fixed-width columns).
std::string MetricsToTable(const PipelineMetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace webre

#endif  // WEBRE_OBS_PIPELINE_METRICS_H_
