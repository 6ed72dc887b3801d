#include "obs/pipeline_metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>

namespace webre {
namespace obs {
namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void AppendKv(std::string& out, const char* key, uint64_t value,
              bool last = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 "%s", key, value,
                last ? "" : ",");
  out += buf;
}

void AppendStringArray(std::string& out, const char* key,
                       const std::vector<std::string>& values) {
  out += "\"";
  out += key;
  out += "\":[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += '"';
    out += EscapeJson(values[i]);
    out += '"';
  }
  out += "]";
}

void AppendCountMap(
    std::string& out, const char* key,
    const std::vector<std::pair<std::string, uint64_t>>& counts) {
  out += "\"";
  out += key;
  out += "\":{";
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i != 0) out += ",";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64,
                  EscapeJson(counts[i].first).c_str(), counts[i].second);
    out += buf;
  }
  out += "}";
}

}  // namespace

const char* PipelineStageName(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kParse:
      return "parse";
    case PipelineStage::kTidy:
      return "tidy";
    case PipelineStage::kTokenize:
      return "tokenize";
    case PipelineStage::kInstance:
      return "instance";
    case PipelineStage::kGroup:
      return "group";
    case PipelineStage::kConsolidate:
      return "consolidate";
    case PipelineStage::kExtract:
      return "extract";
    case PipelineStage::kDiscover:
      return "discover";
    case PipelineStage::kValidate:
      return "validate";
    case PipelineStage::kMap:
      return "map";
  }
  return "unknown";
}

std::vector<std::pair<std::string, uint64_t>>
PipelineMetricsSnapshot::CounterItems() const {
  return {
      {"tokenize.tokens_emitted", tokenize_tokens_emitted},
      {"instance.tokens_total", instance_tokens_total},
      {"instance.tokens_identified", instance_tokens_identified},
      {"instance.tokens_via_synonym", instance_tokens_via_synonym},
      {"instance.tokens_via_bayes", instance_tokens_via_bayes},
      {"instance.elements_created", instance_elements_created},
      {"instance.segments_vetoed", instance_segments_vetoed},
      {"grouping.groups_formed", grouping_groups_formed},
      {"consolidation.nodes_deleted", consolidation_nodes_deleted},
      {"consolidation.nodes_pushed_up", consolidation_nodes_pushed_up},
      {"consolidation.nodes_replaced", consolidation_nodes_replaced},
      {"consolidation.replacements_vetoed",
       consolidation_replacements_vetoed},
      {"mem.node_allocs", mem_node_allocs},
      {"mem.arena_bytes", mem_arena_bytes},
      {"mem.flat_bytes", mem_flat_bytes},
      {"query.queries", query_queries},
      {"query.index_hits", query_index_hits},
      {"query.prefix_hits", query_prefix_hits},
      {"query.fallback_walks", query_fallback_walks},
      {"query.matches", query_matches},
      {"query.predicate_bytes_scanned", query_predicate_bytes_scanned},
      {"query.plan.summary", query_plan_summary},
      {"query.plan.sweep", query_plan_sweep},
      {"query.plan.seeded", query_plan_seeded},
      {"query.plan.scan", query_plan_scan},
      {"storage.wal_appends", storage_wal_appends},
      {"storage.wal_replayed", storage_wal_replayed},
      {"storage.wal_truncated_bytes", storage_wal_truncated_bytes},
      {"storage.snapshot_bytes", storage_snapshot_bytes},
      {"storage.mmap_hits", storage_mmap_hits},
      {"serve.accepted_connections", serve_accepted_connections},
      {"serve.active_connections", serve_active_connections},
      {"serve.requests", serve_requests},
      {"serve.shed_requests", serve_shed_requests},
      {"serve.errors", serve_errors},
      {"serve.cache_hits", serve_cache_hits},
      {"serve.cache_misses", serve_cache_misses},
      {"serve.cache_evictions", serve_cache_evictions},
      {"serve.max_queue_depth", serve_max_queue_depth},
      {"serve.loops", serve_loops},
      {"serve.loop.wakeups", serve_loop_wakeups},
      {"serve.wakeups_coalesced", serve_wakeups_coalesced},
      {"serve.loop.handoffs", serve_loop_handoffs},
  };
}

void PipelineMetrics::MergeQueryStats(const QueryStatsView& stats) {
  query.queries.Add(stats.queries);
  query.index_hits.Add(stats.index_hits);
  query.prefix_hits.Add(stats.prefix_hits);
  query.fallback_walks.Add(stats.fallback_walks);
  query.matches.Add(stats.matches);
  query.predicate_bytes_scanned.Add(stats.predicate_bytes_scanned);
  query.plan_summary.Add(stats.plan_summary);
  query.plan_sweep.Add(stats.plan_sweep);
  query.plan_seeded.Add(stats.plan_seeded);
  query.plan_scan.Add(stats.plan_scan);
  mem.flat_bytes.Add(stats.flat_bytes);
  query_us.Merge(stats.eval_us);
}

void PipelineMetrics::MergeStorageStats(const StorageStatsView& stats) {
  storage.wal_appends.Add(stats.wal_appends);
  storage.wal_replayed.Add(stats.wal_replayed);
  storage.wal_truncated_bytes.Add(stats.wal_truncated_bytes);
  storage.snapshot_bytes.Add(stats.snapshot_bytes);
  storage.mmap_hits.Add(stats.mmap_hits);
}

void PipelineMetrics::MergeServeStats(const ServeStatsView& stats) {
  serve.accepted_connections.Add(stats.accepted_connections);
  serve.active_connections.Add(stats.active_connections);
  serve.requests.Add(stats.requests);
  serve.shed_requests.Add(stats.shed_requests);
  serve.errors.Add(stats.errors);
  serve.cache_hits.Add(stats.cache_hits);
  serve.cache_misses.Add(stats.cache_misses);
  serve.cache_evictions.Add(stats.cache_evictions);
  serve.max_queue_depth.Add(stats.max_queue_depth);
  serve.loops.Add(stats.loops);
  serve.loop_wakeups.Add(stats.wakeups);
  serve.wakeups_coalesced.Add(stats.wakeups_coalesced);
  serve.loop_handoffs.Add(stats.handoffs);
}

void PipelineMetrics::RecordOutcome(const std::string& status_name,
                                    const std::string& failed_stage,
                                    const std::string& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++documents_total_;
  ++outcome_counts_[status_name];
  if (status_name == "ok") {
    ++documents_ok_;
    return;
  }
  if (!failed_stage.empty()) ++failed_stage_counts_[failed_stage];
  if (failure_messages_.size() < kMaxFailureMessages &&
      std::find(failure_messages_.begin(), failure_messages_.end(),
                message) == failure_messages_.end()) {
    failure_messages_.push_back(message);
  }
}

void PipelineMetrics::RecordWorkerFailures(
    const std::vector<std::string>& messages) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& message : messages) {
    if (worker_failures_.size() >= kMaxFailureMessages) break;
    if (std::find(worker_failures_.begin(), worker_failures_.end(),
                  message) == worker_failures_.end()) {
      worker_failures_.push_back(message);
    }
  }
}

void PipelineMetrics::SetAborted(bool aborted) {
  std::lock_guard<std::mutex> lock(mutex_);
  aborted_ = aborted;
}

PipelineMetricsSnapshot PipelineMetrics::Snapshot() const {
  PipelineMetricsSnapshot snapshot;
  snapshot.stages.reserve(kPipelineStageCount);
  for (size_t i = 0; i < kPipelineStageCount; ++i) {
    StageSnapshot stage;
    stage.name = PipelineStageName(static_cast<PipelineStage>(i));
    stage.calls = stages_[i].calls.value();
    stage.wall_ns = stages_[i].wall_ns.value();
    stage.items_in = stages_[i].items_in.value();
    stage.items_out = stages_[i].items_out.value();
    snapshot.stages.push_back(stage);
  }

  snapshot.tokenize_tokens_emitted = tokenize.tokens_emitted.value();
  snapshot.instance_tokens_total = instance.tokens_total.value();
  snapshot.instance_tokens_identified = instance.tokens_identified.value();
  snapshot.instance_tokens_via_synonym = instance.tokens_via_synonym.value();
  snapshot.instance_tokens_via_bayes = instance.tokens_via_bayes.value();
  snapshot.instance_elements_created = instance.elements_created.value();
  snapshot.instance_segments_vetoed = instance.segments_vetoed.value();
  snapshot.grouping_groups_formed = grouping.groups_formed.value();
  snapshot.consolidation_nodes_deleted = consolidation.nodes_deleted.value();
  snapshot.consolidation_nodes_pushed_up =
      consolidation.nodes_pushed_up.value();
  snapshot.consolidation_nodes_replaced =
      consolidation.nodes_replaced.value();
  snapshot.consolidation_replacements_vetoed =
      consolidation.replacements_vetoed.value();

  snapshot.mem_node_allocs = mem.node_allocs.value();
  snapshot.mem_arena_bytes = mem.arena_bytes.value();
  snapshot.mem_flat_bytes = mem.flat_bytes.value();

  snapshot.query_queries = query.queries.value();
  snapshot.query_index_hits = query.index_hits.value();
  snapshot.query_prefix_hits = query.prefix_hits.value();
  snapshot.query_fallback_walks = query.fallback_walks.value();
  snapshot.query_matches = query.matches.value();
  snapshot.query_predicate_bytes_scanned =
      query.predicate_bytes_scanned.value();
  snapshot.query_plan_summary = query.plan_summary.value();
  snapshot.query_plan_sweep = query.plan_sweep.value();
  snapshot.query_plan_seeded = query.plan_seeded.value();
  snapshot.query_plan_scan = query.plan_scan.value();
  snapshot.storage_wal_appends = storage.wal_appends.value();
  snapshot.storage_wal_replayed = storage.wal_replayed.value();
  snapshot.storage_wal_truncated_bytes = storage.wal_truncated_bytes.value();
  snapshot.storage_snapshot_bytes = storage.snapshot_bytes.value();
  snapshot.storage_mmap_hits = storage.mmap_hits.value();
  snapshot.serve_accepted_connections = serve.accepted_connections.value();
  snapshot.serve_active_connections = serve.active_connections.value();
  snapshot.serve_requests = serve.requests.value();
  snapshot.serve_shed_requests = serve.shed_requests.value();
  snapshot.serve_errors = serve.errors.value();
  snapshot.serve_cache_hits = serve.cache_hits.value();
  snapshot.serve_cache_misses = serve.cache_misses.value();
  snapshot.serve_cache_evictions = serve.cache_evictions.value();
  snapshot.serve_max_queue_depth = serve.max_queue_depth.value();
  snapshot.serve_loops = serve.loops.value();
  snapshot.serve_loop_wakeups = serve.loop_wakeups.value();
  snapshot.serve_wakeups_coalesced = serve.wakeups_coalesced.value();
  snapshot.serve_loop_handoffs = serve.loop_handoffs.value();

  snapshot.budget_steps_used = budget.steps_used.value();
  snapshot.budget_nodes_used = budget.nodes_used.value();
  snapshot.budget_entities_used = budget.entities_used.value();
  snapshot.budget_max_steps_one_doc = budget.max_steps_one_doc.value();
  snapshot.budget_max_nodes_one_doc = budget.max_nodes_one_doc.value();
  snapshot.budget_max_entities_one_doc = budget.max_entities_one_doc.value();

  snapshot.convert_us = convert_us.Snapshot();
  snapshot.query_us = query_us.Snapshot();

  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.documents_total = documents_total_;
  snapshot.documents_ok = documents_ok_;
  snapshot.documents_failed = documents_total_ - documents_ok_;
  snapshot.aborted = aborted_;
  snapshot.outcome_counts.assign(outcome_counts_.begin(),
                                 outcome_counts_.end());
  snapshot.failed_stage_counts.assign(failed_stage_counts_.begin(),
                                      failed_stage_counts_.end());
  snapshot.failure_messages = failure_messages_;
  snapshot.worker_failures = worker_failures_;
  return snapshot;
}

std::string MetricsToJson(const PipelineMetricsSnapshot& snapshot,
                          const BudgetLimitsView* limits) {
  std::string out = "{\n";
  AppendKv(out, "webre_metrics_version", 1);
  out += "\n";

  out += "\"documents\":{";
  AppendKv(out, "total", snapshot.documents_total);
  AppendKv(out, "ok", snapshot.documents_ok);
  AppendKv(out, "failed", snapshot.documents_failed);
  out += "\"aborted\":";
  out += snapshot.aborted ? "true" : "false";
  out += "},\n";

  AppendCountMap(out, "outcomes", snapshot.outcome_counts);
  out += ",\n";
  AppendCountMap(out, "failed_stages", snapshot.failed_stage_counts);
  out += ",\n";
  AppendStringArray(out, "failure_messages", snapshot.failure_messages);
  out += ",\n";
  AppendStringArray(out, "worker_failures", snapshot.worker_failures);
  out += ",\n";

  out += "\"stages\":[\n";
  for (size_t i = 0; i < snapshot.stages.size(); ++i) {
    const StageSnapshot& stage = snapshot.stages[i];
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\":\"%s\",\"calls\":%" PRIu64
                  ",\"wall_ms\":%.3f,\"items_in\":%" PRIu64
                  ",\"items_out\":%" PRIu64 "}%s\n",
                  stage.name, stage.calls, stage.wall_ms(), stage.items_in,
                  stage.items_out,
                  i + 1 == snapshot.stages.size() ? "" : ",");
    out += buf;
  }
  out += "],\n";

  out += "\"counters\":{";
  const auto counters = snapshot.CounterItems();
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) out += ",";
    out += "\n  ";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64,
                  counters[i].first.c_str(), counters[i].second);
    out += buf;
  }
  out += "\n},\n";

  out += "\"budget\":{";
  AppendKv(out, "steps_used", snapshot.budget_steps_used);
  AppendKv(out, "nodes_used", snapshot.budget_nodes_used);
  AppendKv(out, "entities_used", snapshot.budget_entities_used);
  AppendKv(out, "max_steps_one_doc", snapshot.budget_max_steps_one_doc);
  AppendKv(out, "max_nodes_one_doc", snapshot.budget_max_nodes_one_doc);
  AppendKv(out, "max_entities_one_doc", snapshot.budget_max_entities_one_doc,
           limits == nullptr);
  if (limits != nullptr) {
    constexpr uint64_t kUnlimited = std::numeric_limits<uint64_t>::max();
    out += "\"headroom\":{";
    bool first = true;
    auto headroom = [&](const char* key, uint64_t used, uint64_t limit) {
      if (limit == 0 || limit == kUnlimited) return;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%.4f", first ? "" : ",",
                    key,
                    1.0 - static_cast<double>(used) /
                              static_cast<double>(limit));
      out += buf;
      first = false;
    };
    headroom("steps", snapshot.budget_max_steps_one_doc, limits->max_steps);
    headroom("nodes", snapshot.budget_max_nodes_one_doc, limits->max_nodes);
    headroom("entities", snapshot.budget_max_entities_one_doc,
             limits->max_entities);
    out += "}";
  }
  out += "},\n";

  char buf[192];
  {
    const HistogramSnapshot& h = snapshot.convert_us;
    std::snprintf(buf, sizeof(buf),
                  "\"convert_us\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                  ",\"min\":%" PRIu64 ",\"max\":%" PRIu64 ",\"mean\":%.1f},\n",
                  h.count, h.sum, h.min, h.max, h.mean());
    out += buf;
  }
  {
    const HistogramSnapshot& h = snapshot.query_us;
    std::snprintf(buf, sizeof(buf),
                  "\"query_us\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                  ",\"min\":%" PRIu64 ",\"max\":%" PRIu64 ",\"mean\":%.1f}\n",
                  h.count, h.sum, h.min, h.max, h.mean());
    out += buf;
  }
  out += "}\n";
  return out;
}

std::string MetricsToTable(const PipelineMetricsSnapshot& snapshot) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-12s %8s %12s %12s %12s\n", "stage",
                "calls", "wall_ms", "items_in", "items_out");
  out += buf;
  for (const StageSnapshot& stage : snapshot.stages) {
    if (stage.calls == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%-12s %8" PRIu64 " %12.2f %12" PRIu64 " %12" PRIu64 "\n",
                  stage.name, stage.calls, stage.wall_ms(), stage.items_in,
                  stage.items_out);
    out += buf;
  }
  out += "counters:\n";
  for (const auto& [name, value] : snapshot.CounterItems()) {
    std::snprintf(buf, sizeof(buf), "  %-38s %12" PRIu64 "\n", name.c_str(),
                  value);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "budget: steps %" PRIu64 ", nodes %" PRIu64
                ", entities %" PRIu64 " (max one doc: %" PRIu64 "/%" PRIu64
                "/%" PRIu64 ")\n",
                snapshot.budget_steps_used, snapshot.budget_nodes_used,
                snapshot.budget_entities_used,
                snapshot.budget_max_steps_one_doc,
                snapshot.budget_max_nodes_one_doc,
                snapshot.budget_max_entities_one_doc);
  out += buf;
  if (snapshot.convert_us.count > 0) {
    std::snprintf(buf, sizeof(buf),
                  "convert latency: mean %.0f us, min %" PRIu64
                  " us, max %" PRIu64 " us over %" PRIu64 " documents\n",
                  snapshot.convert_us.mean(), snapshot.convert_us.min,
                  snapshot.convert_us.max, snapshot.convert_us.count);
    out += buf;
  }
  if (snapshot.query_us.count > 0) {
    std::snprintf(buf, sizeof(buf),
                  "query latency: mean %.0f us, min %" PRIu64
                  " us, max %" PRIu64 " us over %" PRIu64 " queries\n",
                  snapshot.query_us.mean(), snapshot.query_us.min,
                  snapshot.query_us.max, snapshot.query_us.count);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "documents: %" PRIu64 " total, %" PRIu64 " ok, %" PRIu64
                " failed%s\n",
                snapshot.documents_total, snapshot.documents_ok,
                snapshot.documents_failed,
                snapshot.aborted ? " (aborted)" : "");
  out += buf;
  for (const auto& [stage, count] : snapshot.failed_stage_counts) {
    std::snprintf(buf, sizeof(buf), "  failed in %-12s %8" PRIu64 "\n",
                  stage.c_str(), count);
    out += buf;
  }
  for (const std::string& message : snapshot.failure_messages) {
    out += "  failure: " + message + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace webre
