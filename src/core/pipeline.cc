#include "core/pipeline.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "core/telemetry.h"
#include "obs/metrics.h"
#include "schema/path_extractor.h"
#include "xml/dtd_validator.h"

namespace webre {
namespace {

// Copies the pipeline-level limits into the converter options so one
// knob governs the whole stack, and arms span recording whenever a
// metrics/trace sink is attached (the converter is where the stage
// intervals are measured).
PipelineOptions WithLimitsApplied(PipelineOptions options) {
  options.convert.limits = options.limits;
  if (options.metrics != nullptr || options.trace != nullptr) {
    options.convert.record_stage_spans = true;
  }
  return options;
}

}  // namespace

DocumentStatus StatusToDocumentStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kResourceExhausted:
      return DocumentStatus::kLimitExceeded;
    case StatusCode::kInvalidArgument:
      return DocumentStatus::kParseError;
    default:
      return DocumentStatus::kConvertError;
  }
}

const char* DocumentStatusName(DocumentStatus status) {
  switch (status) {
    case DocumentStatus::kOk:
      return "ok";
    case DocumentStatus::kParseError:
      return "parse_error";
    case DocumentStatus::kLimitExceeded:
      return "limit_exceeded";
    case DocumentStatus::kConvertError:
      return "convert_error";
  }
  return "unknown";
}

Pipeline::Pipeline(const ConceptSet* concepts,
                   const ConceptRecognizer* recognizer,
                   const ConstraintSet* constraints, PipelineOptions options)
    : constraints_(constraints),
      converter_(concepts, recognizer, constraints,
                 WithLimitsApplied(options).convert),
      options_(WithLimitsApplied(std::move(options))) {}

PipelineResult Pipeline::Run(
    const std::vector<std::string>& html_pages) const {
  PipelineResult result;
  const size_t count = html_pages.size();
  result.documents.resize(count);
  result.convert_stats.resize(count);
  result.outcomes.resize(count);
  for (size_t i = 0; i < count; ++i) result.outcomes[i].index = i;

  MiningOptions mining = options_.mining;
  if (mining.constraints == nullptr) mining.constraints = constraints_;

  // One pool serves every parallel stage of this run; the serial
  // configuration never spawns a thread.
  const size_t threads = options_.parallel.num_threads == 0
                             ? DefaultThreadCount()
                             : options_.parallel.num_threads;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && count > 1) pool = std::make_unique<ThreadPool>(threads);
  const size_t chunk_size = std::max<size_t>(1, options_.parallel.chunk_size);
  auto run_stage = [&](const std::function<void(size_t, size_t)>& body) {
    if (pool != nullptr) {
      ParallelFor(*pool, count, chunk_size, body);
    } else if (count > 0) {
      body(0, count);
    }
  };

  // Observability sinks. The hot per-node accounting lives in lock-free
  // counters; here we only take a handful of timestamps per document.
  // Outcome bookkeeping is deferred to FinalizeObservability so message
  // order is the input order regardless of thread count.
  obs::PipelineMetrics* metrics = options_.metrics;
  obs::TraceCollector* trace = options_.trace;
  const bool observing = metrics != nullptr || trace != nullptr;
  auto finalize_observability = [&]() {
    if (metrics == nullptr) return;
    for (const DocumentOutcome& outcome : result.outcomes) {
      metrics->RecordOutcome(DocumentStatusName(outcome.status),
                             outcome.stage, outcome.message);
    }
    metrics->SetAborted(result.aborted);
    if (pool != nullptr) {
      metrics->RecordWorkerFailures(pool->failure_messages());
    }
  };

  // Stage 1 — conversion. Each page is converted and path-extracted
  // independently on the pool under the per-document resource guards
  // and an exception barrier: a pathological page writes one error
  // outcome into its slot and the rest of its chunk continues. Each
  // chunk folds its surviving documents' paths into its own miner right
  // after extraction, so no document's paths outlive its own iteration.
  // Every trie statistic is a count or a sum of small integers, so the
  // chunk miners merged below hold exactly the trie a serial fold in
  // input order would, regardless of thread count or chunking.
  std::vector<std::unique_ptr<FrequentPathMiner>> chunk_miners(
      (count + chunk_size - 1) / chunk_size);
  const bool use_arena = options_.use_node_arena;
  if (use_arena) result.arenas.resize(count);
  run_stage([&](size_t begin, size_t end) {
    // The serial configuration runs one chunk, [0, count).
    auto& chunk_miner = chunk_miners[begin / chunk_size];
    chunk_miner = std::make_unique<FrequentPathMiner>(mining);
    for (size_t i = begin; i < end; ++i) {
      DocumentOutcome& outcome = result.outcomes[i];
      ConvertStats stats;
      const double doc_begin = observing ? obs::MonotonicSeconds() : 0.0;
      // The document's tree (including every transient node the
      // restructuring rules splice out) is carved from its own arena;
      // the allocation-counter delta is per-thread, and this document
      // runs on exactly one thread.
      if (use_arena) result.arenas[i] = std::make_shared<NodeArena>();
      const uint64_t allocs_before = Node::AllocationsOnThisThread();
      try {
        NodeArenaScope arena_scope(use_arena ? result.arenas[i].get()
                                             : nullptr);
        std::string stage;
        StatusOr<std::unique_ptr<Node>> converted =
            converter_.TryConvert(html_pages[i], &stats, &stage);
        stats.mem_node_allocs =
            Node::AllocationsOnThisThread() - allocs_before;
        if (use_arena) {
          stats.mem_arena_bytes = result.arenas[i]->bytes_allocated();
        }
        if (!converted.ok()) {
          outcome.status = StatusToDocumentStatus(converted.status());
          outcome.stage = std::move(stage);
          outcome.message = converted.status().message();
        } else {
          result.documents[i] = std::move(converted).value();
          result.convert_stats[i] = stats;
          const double extract_begin =
              observing ? obs::MonotonicSeconds() : 0.0;
          const DocumentPaths paths = ExtractPaths(*result.documents[i]);
          chunk_miner->AddDocumentPaths(paths);
          if (observing) {
            const double extract_end = obs::MonotonicSeconds();
            if (metrics != nullptr) {
              metrics->RecordStage(
                  obs::PipelineStage::kExtract,
                  static_cast<uint64_t>((extract_end - extract_begin) * 1e9),
                  stats.concept_nodes, paths.size());
            }
            if (trace != nullptr) {
              trace->AddSpan("extract", "stage", extract_begin, extract_end,
                             i);
            }
          }
        }
      } catch (const std::exception& e) {
        outcome.status = DocumentStatus::kConvertError;
        outcome.stage = "extract";
        outcome.message = e.what();
        result.documents[i] = nullptr;
      } catch (...) {
        outcome.status = DocumentStatus::kConvertError;
        outcome.stage = "extract";
        outcome.message = "unknown exception";
        result.documents[i] = nullptr;
      }
      // A failed document holds no tree; release its arena now instead
      // of carrying dead blocks to the end of the batch. (documents[i]
      // is already null here on every failure path.)
      if (use_arena && !outcome.ok()) result.arenas[i].reset();
      if (observing) {
        // Failed documents still contribute: their spans cover the
        // stages completed before the failure.
        const double doc_end = obs::MonotonicSeconds();
        if (metrics != nullptr) {
          RecordConvertMetrics(*metrics, stats);
          metrics->convert_us.Record(
              static_cast<uint64_t>((doc_end - doc_begin) * 1e6));
        }
        if (trace != nullptr) {
          EmitConvertTrace(*trace, stats, i);
          trace->AddSpan("document", "doc", doc_begin, doc_end, i);
        }
      }
    }
  });
  for (const DocumentOutcome& outcome : result.outcomes) {
    if (!outcome.ok()) ++result.failed_documents;
  }

  if (!options_.keep_going && result.failed_documents > 0) {
    // Outcomes are complete (every conversion ran), but the batch is
    // declared failed before discovery.
    result.aborted = true;
    finalize_observability();
    return result;
  }

  // Stage 2 — discovery: merge the chunk miners (failed documents never
  // folded, so one bad page cannot skew support counts with an empty
  // path set), then mine the schema and derive the DTD.
  const double discover_begin = observing ? obs::MonotonicSeconds() : 0.0;
  std::unique_ptr<FrequentPathMiner> miner;
  for (std::unique_ptr<FrequentPathMiner>& chunk_miner : chunk_miners) {
    if (chunk_miner == nullptr) continue;  // its chunk task threw
    if (miner == nullptr) {
      miner = std::move(chunk_miner);
    } else {
      miner->MergeFrom(*chunk_miner);
    }
  }
  chunk_miners.clear();
  if (miner == nullptr) miner = std::make_unique<FrequentPathMiner>(mining);
  const size_t documents_folded = miner->document_count();
  result.schema = miner->Discover();
  result.mining_stats = miner->stats();
  result.dtd = BuildDtd(result.schema, options_.dtd);
  // The mapper is compiled once per batch and shared by every worker.
  std::optional<DocumentMapper> mapper;
  if (options_.map_documents) mapper.emplace(result.schema, result.dtd);
  if (observing) {
    const double discover_end = obs::MonotonicSeconds();
    if (metrics != nullptr) {
      metrics->RecordStage(
          obs::PipelineStage::kDiscover,
          static_cast<uint64_t>((discover_end - discover_begin) * 1e9),
          documents_folded, result.schema.NodeCount());
    }
    if (trace != nullptr) {
      trace->AddSpan("discover", "batch", discover_begin, discover_end);
    }
  }

  // Stage 3 — per-document validation and optional mapping, again
  // fanned out with results stored by input index. Failed documents
  // are skipped; a late failure (exception while mapping) demotes the
  // document's outcome but never the batch.
  std::vector<unsigned char> conforms_before(count, 0);
  std::vector<unsigned char> conforms_after(count, 0);
  if (options_.map_documents) result.mapped_documents.resize(count);
  run_stage([&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (!result.outcomes[i].ok()) continue;
      DocumentOutcome& outcome = result.outcomes[i];
      const char* stage = "validate";
      // Mapping builds the conformed tree; allocate it from the same
      // arena as the source document so both share one lifetime.
      NodeArenaScope arena_scope(use_arena ? result.arenas[i].get()
                                           : nullptr);
      try {
        const Node& doc = *result.documents[i];
        const double validate_begin =
            observing ? obs::MonotonicSeconds() : 0.0;
        conforms_before[i] = ConformsToDtd(doc, result.dtd) ? 1 : 0;
        if (observing) {
          const double validate_end = obs::MonotonicSeconds();
          if (metrics != nullptr) {
            metrics->RecordStage(
                obs::PipelineStage::kValidate,
                static_cast<uint64_t>((validate_end - validate_begin) * 1e9),
                1, conforms_before[i]);
          }
          if (trace != nullptr) {
            trace->AddSpan("validate", "stage", validate_begin, validate_end,
                           i);
          }
        }
        if (options_.map_documents) {
          stage = "map";
          const double map_begin = observing ? obs::MonotonicSeconds() : 0.0;
          // Only the conformed tree and its validity are kept, so the
          // edit is not priced (ConformToSchema would).
          ConformResult mapped = mapper->Conform(doc);
          conforms_after[i] = mapped.report.conforms ? 1 : 0;
          result.mapped_documents[i] = std::move(mapped.document);
          if (observing) {
            const double map_end = obs::MonotonicSeconds();
            if (metrics != nullptr) {
              metrics->RecordStage(
                  obs::PipelineStage::kMap,
                  static_cast<uint64_t>((map_end - map_begin) * 1e9), 1,
                  conforms_after[i]);
            }
            if (trace != nullptr) {
              trace->AddSpan("map", "stage", map_begin, map_end, i);
            }
          }
        }
      } catch (const std::exception& e) {
        outcome.status = DocumentStatus::kConvertError;
        outcome.stage = stage;
        outcome.message = e.what();
        conforms_before[i] = 0;
        conforms_after[i] = 0;
      } catch (...) {
        outcome.status = DocumentStatus::kConvertError;
        outcome.stage = stage;
        outcome.message = "unknown exception";
        conforms_before[i] = 0;
        conforms_after[i] = 0;
      }
    }
  });
  for (size_t i = 0; i < count; ++i) {
    result.conforming_before += conforms_before[i];
    result.conforming_after += conforms_after[i];
  }
  // Recount failures to include any stage-3 demotions.
  result.failed_documents = 0;
  for (const DocumentOutcome& outcome : result.outcomes) {
    if (!outcome.ok()) ++result.failed_documents;
  }
  finalize_observability();
  return result;
}

}  // namespace webre
